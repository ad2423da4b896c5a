(** Figure 7 — random loss resilience.

    100 Mbps bottleneck, 30 ms RTT, BDP buffer, Bernoulli loss applied to
    both the forward and reverse paths, swept from 0 to 6 %. The paper's
    shape: PCC holds >95 % of capacity through 1 % loss and degrades
    gracefully to ~2 %, then collapses as the safe utility's 5 % loss cap
    bites; CUBIC collapses an order of magnitude below PCC already at
    0.1 %; Illinois is the most loss-tolerant TCP but still far below
    PCC. *)

type row = {
  loss : float;
  pcc : float;  (** bits/s *)
  cubic : float;
  illinois : float;
  newreno : float;
}

val run :
  ?pool:Runner.t ->
  ?scale:float ->
  ?seed:int ->
  ?losses:float list ->
  unit ->
  row list
(** Base duration 60 s per point, multiplied by [scale] (default 1).
    [pool] fans the measurements across domains; the rows are identical
    with and without it. *)

val table : row list -> Exp_common.table
