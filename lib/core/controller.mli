(** The performance-oriented control module of §3.2.

    A learning loop over sending rates, driven purely by per-MI
    (rate, utility) observations:

    - {b Starting}: double the rate each MI; when utility first falls,
      return to the previous rate and enter decision making (slow-start
      analogue that ignores loss per se).
    - {b Decision}: run randomized controlled trials — 2 pairs of MIs,
      each pair testing r(1+ε) and r(1−ε) in random order (1 pair when RCT
      is disabled). Move only if both pairs agree; otherwise stay at r and
      grow the trial granularity ε by ε_min (up to ε_max).
    - {b Rate adjusting}: accelerate in the chosen direction,
      rₙ = rₙ₋₁·(1 + n·ε_min·dir), until utility falls, then revert to
      the last good rate and re-enter decision making.

    Results for MIs planned by a superseded phase are ignored (they were
    sent before the phase change took effect). *)

type vivace_config = {
  viv_eps : float;  (** Probe amplitude ε: trials at base·(1±ε). *)
  theta : float;  (** Gradient-to-Mbps conversion factor θ. *)
  amp_max : int;  (** Confidence amplifier cap. *)
  omega0 : float;  (** Initial change boundary ω₀ (rate fraction). *)
  omega_delta : float;  (** ω growth per consecutive clamped step. *)
  omega_max : float;  (** ω ceiling. *)
}

val default_vivace : vivace_config
(** ε = 0.05, θ = 1, m ≤ 30, ω₀ = 0.05 growing by 0.1 to 0.5 — the
    shape of the NSDI 2018 defaults, scaled to this simulator's Mbps
    utility magnitudes. *)

type algorithm =
  | Allegro  (** §3.2's trial/decision/adjusting state machine. *)
  | Vivace of vivace_config
      (** Gradient ascent with confidence amplification and a dynamic
          change boundary (PCC Vivace, NSDI 2018). Reuses Allegro's
          Starting phase; afterwards alternates one ±ε probe pair with
          one gradient step, never entering Adjusting. *)

type config = {
  eps_min : float;  (** Trial granularity step, paper: 0.01. *)
  eps_max : float;  (** Granularity cap, paper: 0.05. *)
  rct : bool;  (** Two trial pairs (true, paper default) or one. *)
  init_rate : float;  (** Starting rate, bits/s (paper: 2·MSS/RTT). *)
  min_rate : float;  (** Control floor, bits/s. *)
  max_rate : float;  (** Control ceiling, bits/s. *)
  algorithm : algorithm;  (** Which rate-update rule drives the flow. *)
}

val default_config : config
(** ε ∈ [0.01, 0.05], RCT on, init 0.48 Mbps (2 MSS / 50 ms),
    floor 50 kbps, ceiling 20 Gbps, Allegro. *)

type phase = Starting | Decision | Adjusting
(** Exposed for tests and rate-evolution traces. *)

type t

val create : ?config:config -> rng:Pcc_sim.Rng.t -> unit -> t

val rate : t -> float
(** The rate the sender should currently use (base rate; per-MI trial
    rates are handed out via {!rate_for_mi}). *)

val rate_for_mi : t -> id:int -> float
(** Rate plan for a freshly opened MI — wire this to
    {!Monitor.create}'s [rate_for_mi]. *)

val on_result : t -> Monitor.result -> unit
(** Feed an evaluated MI back; may change the current rate. Results come
    in id order (as {!Monitor} releases them), so a result drops the
    plans of every id up to its own, discarded MIs' included. *)

val planned : t -> int
(** MI plans still held: no result for their id or a later one yet. *)

val on_rate_change : t -> (float -> unit) -> unit
(** Register a callback fired whenever the base rate changes outside the
    per-MI plan (phase transitions and reversions) — the sender uses it to
    retune its pacer and re-align the monitor. *)

val set_trace : t -> id:int -> now:(unit -> float) -> unit
(** Identify this controller's trace records: [id] is the flow id stamped
    on [Rate_change] events, [now] the clock used for their timestamps
    (defaults: [-1] and a constant-zero clock). The PCC sender wires both
    right after construction. *)

val phase : t -> phase
val eps : t -> float
(** Current trial granularity. *)

val decisions : t -> int
(** Number of completed decision rounds (conclusive or not). *)

val gradient_steps : t -> int
(** Number of Vivace gradient steps taken (0 under Allegro). *)

val mean_utility : t -> float
(** Mean utility over every MI result delivered to this controller
    (0 before the first result) — the bench's per-controller summary. *)
