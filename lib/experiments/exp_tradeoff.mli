(** Figure 16 — the stability/reactiveness trade-off.

    Flow A owns a 100 Mbps, 30 ms link; flow B joins 20 s later. B's
    convergence time is the paper's forward-looking definition (first
    second from which 5 s of throughput stays within ±25 % of the fair
    share) and stability is B's throughput stddev over the following
    60 s. PCC traces a frontier by sweeping the monitor-interval length
    Tm and the step ε, with and without RCT; the TCP variants appear as
    fixed points. Shape: the PCC frontier dominates every TCP point, and
    RCT buys lower variance at nearly unchanged convergence time. *)

type point = {
  label : string;
  convergence_time : float option;  (** seconds from B's start; averaged *)
  stddev : float;  (** bits/s *)
}

val run :
  ?pool:Runner.t ->
  ?scale:float ->
  ?seed:int ->
  ?trials:int ->
  unit ->
  point list
(** [trials] (default max 2 (15·scale)) runs are averaged per point. *)

val table : point list -> Exp_common.table
