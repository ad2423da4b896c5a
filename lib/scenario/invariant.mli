(** Runtime invariant checking for simulated topologies.

    A checker sweeps its target every [interval] of simulated time
    (piggybacking on the engine's own timers, so checks are deterministic
    and cost nothing when not attached) and asserts:

    - {b packet conservation} — every packet offered to a link is accounted
      for exactly once:
      [offered + duplicated = delivered + channel losses + queue drops +
       queued + in-flight];
    - {b queue occupancy} — buffered bytes never exceed the discipline's
      advertised {!Pcc_net.Queue_disc.t}[.capacity_bytes];
    - {b clock monotonicity} — simulated time never moves backwards;
    - {b throughput bound} — serialized (non-duplicate) delivered bytes
      never exceed the integral of link capacity over time (goodput ≤
      capacity × time follows, since goodput counts a subset of delivered
      bytes), with two packets of slack for serialization granularity;
    - {b goodput monotonicity} — per-flow receiver goodput never
      decreases (topology targets).

    A violation raises {!Violation} by default (inside an engine callback,
    so under the engine's [Raise] policy it surfaces as
    [Engine.Event_error] carrying the violation); pass [on_violation] to
    collect instead. Enabled in the test suite and behind the
    [--check-invariants] flag of the [pcc_sim] CLI. *)

type violation = { time : float; check : string; detail : string }

exception Violation of violation

type t

val attach_link :
  Pcc_sim.Engine.t ->
  ?interval:float ->
  ?on_violation:(violation -> unit) ->
  ?name:string ->
  Pcc_net.Link.t ->
  t
(** Watch a single link. [interval] defaults to 50 ms of simulated time.
    @raise Invalid_argument if [interval <= 0]. *)

val attach_topology :
  ?interval:float -> ?on_violation:(violation -> unit) -> Topology.t -> t
(** Watch every link of a graph topology (named per
    {!Topology.link_name}) plus per-flow goodput monotonicity. *)

val check_now : t -> unit
(** Run one sweep immediately (outside the periodic schedule) — raises
    {!Violation} directly on failure, which makes it convenient at the end
    of a test. *)

val stop : t -> unit
(** Cease checking; the pending timer fires once more as a no-op. *)

val checks_run : t -> int
(** Number of completed sweeps. *)
