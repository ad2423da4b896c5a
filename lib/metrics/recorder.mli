(** Periodic sampling of simulation counters into time series.

    A recorder polls a cumulative counter (typically a flow's acked
    bytes) every [interval] of simulated time; the difference between
    consecutive samples gives a windowed throughput series — the 1-second
    granularity rate plots of Figs. 11 and 12. *)

type t

val create :
  Pcc_sim.Engine.t -> ?interval:float -> (unit -> float) -> t
(** [create engine f] samples [f ()] every [interval] seconds (default
    1.0) starting one interval from now, until {!stop}. *)

val stop : t -> unit

val samples : t -> (float * float) array
(** Raw (time, value) samples so far. *)

val rates : t -> (float * float) array
(** Windowed derivative: [(tᵢ, (vᵢ − vᵢ₋₁)/interval)]. For a byte
    counter this is bytes/s; multiply by 8 for bits/s ({!rates_bps}). *)

val rates_bps : t -> (float * float) array
(** {!rates} scaled by 8 — throughput in bits/s from a byte counter. *)
