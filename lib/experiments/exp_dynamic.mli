(** Figure 11 — rapidly changing network conditions.

    Every 5 s the bottleneck's bandwidth (10–100 Mbps), base RTT
    (10–100 ms) and random loss (0–1 %) are redrawn independently and
    uniformly; the experiment tracks each protocol's achieved throughput
    against the moving optimum over 500 s. Shape: PCC tracks the
    available bandwidth (≈83 % of optimal in the paper) while CUBIC and
    Illinois achieve small fractions of it. *)

type row = {
  protocol : string;
  throughput : float;  (** average goodput, bits/s *)
  optimal : float;  (** time-weighted mean available bandwidth *)
  fraction : float;  (** throughput / optimal *)
}

type series_point = { time : float; optimal : float; rate : float }

val run :
  ?pool:Runner.t ->
  ?scale:float ->
  ?seed:int ->
  unit ->
  row list * (string * series_point list) list
(** Base duration 500 s, scaled (minimum 50 s). Also returns, per
    protocol, a 5 s-sampled series of (optimal bandwidth, controller
    rate) for rate-tracking plots. *)

val table : row list -> Exp_common.table
