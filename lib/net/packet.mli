(** Packets exchanged between senders and receivers.

    Data packets carry a per-flow sequence number; acknowledgments carry a
    per-packet selective acknowledgment (the seq being acked plus the
    receiver's cumulative ack) and echo the data packet's send timestamp so
    senders can compute RTT samples without keeping extra state. This is the
    idealized "TCP SACK is enough feedback" receiver the paper assumes.

    Packets are immutable: a hop never writes to one, so a packet that
    has been promoted to the major heap costs the minor collector
    nothing. Per-queue state such as the enqueue time lives in the queue
    (see {!Queue_disc}). *)

type ack = {
  acked_seq : int;  (** Sequence number of the data packet being acked. *)
  cum_ack : int;  (** Highest seq such that all [<= cum_ack] were received. *)
  recv_bytes : int;  (** Total distinct payload bytes received so far. *)
  data_sent_at : float;  (** Send timestamp echoed from the data packet. *)
  data_retx : bool;  (** Whether the acked data packet was a retransmission. *)
}

type kind =
  | Data of { retx : bool }  (** Application payload. *)
  | Ack of ack  (** Receiver feedback. *)

type t = {
  flow : int;  (** Flow identifier (assigned by {!val-fresh_flow_id}). *)
  seq : int;  (** Per-flow sequence number (data) or echo (ack). *)
  size : int;  (** Wire size in bytes, headers included. *)
  sent_at : float;  (** Time the packet was handed to the first link. *)
  kind : kind;
}

val data : flow:int -> seq:int -> size:int -> now:float -> retx:bool -> t
(** [data ~flow ~seq ~size ~now ~retx] is a data packet sent at [now].
    Its [kind] is one of two shared values, so data packets with equal
    [retx] have physically equal kinds. *)

val ack_of : t -> cum_ack:int -> recv_bytes:int -> now:float -> t
(** [ack_of pkt ~cum_ack ~recv_bytes ~now] is the acknowledgment a receiver
    generates for data packet [pkt].
    @raise Invalid_argument if [pkt] is itself an ack. *)

val is_data : t -> bool
(** Whether the packet carries payload. *)

val fresh_flow_id : unit -> int
(** A process-unique flow identifier, unique across domains too. On a
    single domain the ids run 1, 2, 3, … in call order. *)
