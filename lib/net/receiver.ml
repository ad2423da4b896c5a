open Pcc_sim

(* Duplicate detection and cumulative-ack reassembly over a flat byte
   ring covering [[cum_ack + 1, highest seen]] (see [Seq_window]), so
   memory follows the reordering window, not the sequence space. The
   out-of-order set of the tree-based version is implicit — it is
   exactly the seen sequences above [cum_ack], and advancing the
   cumulative ack is a walk over contiguous seen bytes. *)

type t = {
  engine : Engine.t;
  ack_out : Packet.t -> unit;
  mutable cum_ack : int;
  mutable goodput_bytes : int;
  mutable received_pkts : int;
  win : Seq_window.t;  (* ring index of [seen] *)
  mutable seen : Bytes.t;  (* one byte per sequence; 1 = received *)
}

let create engine ~ack_out =
  {
    engine;
    ack_out;
    cum_ack = -1;
    goodput_bytes = 0;
    received_pkts = 0;
    win = Seq_window.create 16;
    seen = Bytes.make 16 '\000';
  }

(* Ring membership and index, inline: the per-packet path makes no call. *)
let[@inline] in_ring t seq = (seq - t.win.base) land lnot t.win.mask = 0
let[@inline] slot t seq = seq land t.win.mask

let make_room t seq =
  let seen = t.seen in
  Seq_window.reserve t.win seq ~floor:(t.cum_ack + 1)
    ~clear:(fun p n -> Bytes.fill seen p n '\000')
    ~grow:(fun cap -> t.seen <- Bytes.make cap '\000')
    ~move:(fun src dst n -> Bytes.blit seen src t.seen dst n)

let[@inline] reserve t seq = if not (in_ring t seq) then make_room t seq

(* Only members above [cum_ack] are read. *)
let[@inline] seen t seq = Bytes.unsafe_get t.seen (slot t seq) = '\001'

let advance t =
  while in_ring t (t.cum_ack + 1) && seen t (t.cum_ack + 1) do
    t.cum_ack <- t.cum_ack + 1
  done

let on_packet t (p : Packet.t) =
  match p.kind with
  | Packet.Ack _ -> ()
  | Packet.Data _ ->
    t.received_pkts <- t.received_pkts + 1;
    if p.seq > t.cum_ack then begin
      reserve t p.seq;
      if not (seen t p.seq) then begin
        Bytes.unsafe_set t.seen (slot t p.seq) '\001';
        t.goodput_bytes <- t.goodput_bytes + p.size;
        if p.seq = t.cum_ack + 1 then advance t
      end
    end;
    let now = Engine.now t.engine in
    t.ack_out
      (Packet.ack_of p ~cum_ack:t.cum_ack ~recv_bytes:t.goodput_bytes ~now)

let goodput_bytes t = t.goodput_bytes
let received_pkts t = t.received_pkts
let cum_ack t = t.cum_ack
