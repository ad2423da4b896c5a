type ack = {
  acked_seq : int;
  cum_ack : int;
  recv_bytes : int;
  data_sent_at : float;
  data_retx : bool;
}

type kind = Data of { retx : bool } | Ack of ack

type t = { flow : int; seq : int; size : int; sent_at : float; kind : kind }

(* The only two data kinds: a data packet allocates its record alone. *)
let fresh_kind = Data { retx = false }
let retx_kind = Data { retx = true }

let data ~flow ~seq ~size ~now ~retx =
  let kind = if retx then retx_kind else fresh_kind in
  { flow; seq; size; sent_at = now; kind }

let ack_of pkt ~cum_ack ~recv_bytes ~now =
  match pkt.kind with
  | Ack _ -> invalid_arg "Packet.ack_of: cannot ack an ack"
  | Data { retx } ->
    {
      flow = pkt.flow;
      seq = pkt.seq;
      size = Pcc_sim.Units.ack_size;
      sent_at = now;
      kind =
        Ack
          {
            acked_seq = pkt.seq;
            cum_ack;
            recv_bytes;
            data_sent_at = pkt.sent_at;
            data_retx = retx;
          };
    }

let is_data t = match t.kind with Data _ -> true | Ack _ -> false

(* Shared by every domain: a plain [ref] could hand two domains the same
   id, and the topology's routing tables are keyed by flow id. *)
let flow_counter = Atomic.make 0

let fresh_flow_id () = Atomic.fetch_and_add flow_counter 1 + 1
