(** Figures 12–13 — dynamics of competing flows on a dumbbell.

    Four flows share a 100 Mbps, 30 ms bottleneck with a BDP buffer; they
    start (and later stop) staggered. Fig. 12 contrasts the rate
    evolution of PCC and CUBIC at 1 s granularity; Fig. 13 reduces the
    same runs to Jain's fairness index at growing time scales. Shapes:
    PCC flows hold near-constant equal rates (tiny variance), CUBIC
    oscillates wildly; PCC's Jain index is higher at every time scale. *)

type protocol_result = {
  protocol : string;
  jain : (float * float) list;  (** (timescale s, mean Jain index) *)
  mean_stddev : float;
      (** Rate stddev per flow over the all-flows-active window, averaged
          across flows — Fig. 12's visual stability, quantified. *)
  series : (float * float) array list;  (** Per-flow 1 s throughput. *)
}

val run :
  ?pool:Runner.t ->
  ?scale:float ->
  ?seed:int ->
  ?flows:int ->
  unit ->
  protocol_result list
(** Stagger is 500 s · scale (min 60 s); flows run for 4 staggers each.
    Protocols: PCC, CUBIC, New Reno. *)

val table : protocol_result list -> Exp_common.table
