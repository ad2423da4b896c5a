(** Figure 10 — TCP incast in the data center.

    N senders simultaneously push a fixed block each to one receiver over
    a 1 Gbps, 100 µs-RTT path with a shallow (64 KB) switch buffer —
    the barrier-synchronized request pattern that collapses TCP via
    200 ms RTO stalls. Goodput is the total data divided by the time the
    slowest sender finishes, averaged over rounds. Shape: with ≥10
    senders PCC sustains 60 %+ of line rate while TCP collapses to a
    fraction of it. *)

type row = {
  senders : int;
  block : int;  (** bytes per sender *)
  pcc : float;  (** goodput, bits/s *)
  tcp : float;
}

val run :
  ?pool:Runner.t ->
  ?scale:float ->
  ?seed:int ->
  ?senders:int list ->
  ?blocks:int list ->
  unit ->
  row list
(** [scale] controls the number of averaged rounds (15·scale, min 2). *)

val table : row list -> Exp_common.table
