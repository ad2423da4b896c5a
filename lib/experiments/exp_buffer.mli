(** Figure 9 — shallow buffers on the bottleneck link.

    100 Mbps, 30 ms RTT, no random loss; buffer swept from one packet to
    one BDP. Shape: PCC needs only ~6 MSS of buffer to reach 90 % of
    capacity (and still moves data with a single-packet buffer); CUBIC
    needs over an order of magnitude more buffer for the same throughput;
    pacing alone does not save Reno. *)

type row = {
  buffer : int;  (** bytes *)
  pcc : float;
  cubic : float;
  paced_reno : float;
}

val run :
  ?pool:Runner.t ->
  ?scale:float ->
  ?seed:int ->
  ?buffers:int list ->
  unit ->
  row list
(** Base duration 100 s per point. *)

val table : row list -> Exp_common.table
