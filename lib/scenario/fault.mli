(** Declarative fault injection.

    PCC's headline claim is {e consistent} performance under adverse
    conditions — random loss, shallow buffers, link flaps, satellite-grade
    delay (§4.1, Fig. 11). This module makes the adverse conditions
    first-class, reusable objects: a fault {!schedule} is plain data that
    can be printed, stored and replayed, and {!inject} compiles it onto
    engine timers against any {!target} topology.

    {b Determinism contract.} A schedule is pure data; injecting the same
    schedule into the same seeded topology reproduces every simulated event
    bit-for-bit. The {!chaos} generator draws Poisson fault arrivals and
    fault magnitudes exclusively from the [Rng.t] it is given, so a seed
    fully determines the gauntlet.

    {b Restoration semantics.} Each fault snapshots the knob it perturbs at
    onset and restores that snapshot when it ends, so faults compose with a
    standing baseline impairment. Schedules with overlapping faults on the
    same knob have last-restorer-wins semantics; {!chaos} produces
    non-overlapping schedules by construction. *)

type kind =
  | Blackout of { duration : float }
      (** Forward loss to 100% on every target link. *)
  | Loss_burst of { duration : float; loss : float }
      (** Forward Bernoulli loss raised to [loss]. *)
  | Bandwidth_cliff of { duration : float; factor : float }
      (** Bandwidth multiplied by [factor] (e.g. 0.1 = 90% cut), then
          restored. *)
  | Bandwidth_flap of { count : int; period : float; factor : float }
      (** [count] cycles of [period] seconds, each spending the first half
          at [bandwidth *. factor]. *)
  | Delay_spike of { duration : float; extra : float }
      (** Propagation delay increased by [extra] seconds (reroute via a
          longer path). *)
  | Jitter_burst of { duration : float; jitter : float }
      (** Uniform extra delay bound set to [jitter] seconds. *)
  | Reverse_blackhole of { duration : float }
      (** All acknowledgments dropped — every monitor interval during the
          hole reads 100% loss. *)
  | Reverse_loss_burst of { duration : float; loss : float }
      (** Ack-path Bernoulli loss raised to [loss]. *)
  | Duplication_episode of { duration : float; prob : float }
      (** Each delivered packet duplicated with probability [prob]. *)
  | Reordering_episode of { duration : float; prob : float; extra : float }
      (** Each packet delayed an extra [extra] seconds with probability
          [prob], arriving behind later-sent packets. *)
  | Partition of { duration : float; hop : int }
      (** Total loss on one hop of a multihop chain (index into
          {!target}[.links]). *)

type event = { at : float; kind : kind }

type schedule = event list

val at : float -> kind -> event
(** [at t kind] is [kind] striking at simulated time [t].
    @raise Invalid_argument if [t < 0]. *)

val duration : kind -> float
(** Total active span of a fault ([count * period] for a flap). *)

val describe : kind -> string
(** Short human-readable label, e.g. ["blackout 1.50s"]. *)

val window : event -> float * float
(** [(start, stop)] of the fault's active span. *)

val windows : schedule -> (string * float * float) list
(** [(describe, start, stop)] per event — the shape
    [Pcc_metrics.Recovery.analyze] consumes. *)

val pp_event : Format.formatter -> event -> unit
val pp_schedule : Format.formatter -> schedule -> unit

(** {1 Targets} *)

type target = {
  engine : Pcc_sim.Engine.t;
  links : Pcc_net.Link.t array;  (** Forward links faults perturb. *)
  set_rev_loss : float -> unit;  (** Ack-path loss knob (may be a no-op). *)
  rev_loss : unit -> float;  (** Current ack-path loss. *)
}

val target_of_topology : ?links:Topology.link_id list -> Topology.t -> target
(** General graph target. Link faults hit the listed links ([links]
    defaults to every link in the graph); {!Partition} indexes into that
    list. Reverse-path faults drive {!Topology.set_rev_loss}, which only
    affects flows whose ideal reverse lines are loss-capable. *)

val target_of_path : Path.t -> target
(** [target_of_topology (Path.topology p)]: faults hit the bottleneck
    link and the reverse delay lines. *)

val target_of_multihop : Multihop.t -> target
(** [target_of_topology (Multihop.topology mh)]: link faults hit
    {e every} hop; {!Partition} singles one out. Reverse-path faults have
    no effect (multihop reverse lines carry no RNG). *)

(** {1 Injection} *)

val inject : target -> schedule -> unit
(** Compile the schedule onto the target's engine: one timer per fault
    onset, one per restoration. Must be called before the engine passes
    the earliest [at].
    @raise Invalid_argument on a {!Partition} hop outside the target. *)

val inject_path : Path.t -> schedule -> unit
(** [inject_path p s] is [inject (target_of_path p) s]. *)

(** {1 Chaos gauntlets} *)

val chaos :
  rng:Pcc_sim.Rng.t ->
  ?rate:float ->
  ?start:float ->
  ?gap:float ->
  ?kinds:kind array ->
  duration:float ->
  unit ->
  schedule
(** [chaos ~rng ~duration ()] draws a deterministic (per [rng] state)
    gauntlet of faults with Poisson arrivals at mean [rate] per second
    (default 0.1), none starting before [start] (default 5 s, giving flows
    time to converge), consecutive faults separated by at least [gap]
    seconds of healthy network (default 4 s, so per-fault recovery is
    measurable), and every fault ending by [duration]. Kinds and
    magnitudes are drawn from a built-in menu covering every [kind] except
    {!Partition}, or uniformly from [kinds] if given.
    @raise Invalid_argument if [rate <= 0], [gap < 0] or [kinds] is
    empty. *)
