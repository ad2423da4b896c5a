(** The oracle suite: what makes a generated scenario a {e test}.

    A scenario run has no hand-written expected output, so correctness is
    judged by properties that must hold for {e every} valid scenario:

    {b Semantic invariants} (checked on a single run)
    - the runtime {!Pcc_scenario.Invariant} checker's sweeps: per-link
      packet conservation, queue occupancy within the discipline's
      advertised capacity, clock monotonicity, delivered bytes bounded by
      the capacity integral, per-flow goodput monotonicity;
    - end-to-end byte conservation: no receiver accepts more payload than
      its sender transmitted; cumulative acks never exceed transmission;
    - sized transfers never deliver more than their size, and a recorded
      flow-completion time lies in [(0, duration]];
    - sender rate estimates and smoothed RTTs stay finite and
      non-negative;
    - the engine terminates within its event budget (no livelock) and
      its clock ends at [duration].

    {b Differential oracles} (two executions that must agree bit-for-bit)
    - same-seed determinism: two runs of the same scenario value produce
      identical digests (per-flow byte/packet counters, srtt/rate bit
      patterns, event counts);
    - serialization: [of_string (to_string s)] is structurally equal to
      [s] and runs to an identical digest;
    - wrapper equivalence: a scenario expressible through the flat
      {!Pcc_scenario.Path} (single dumbbell link) or
      {!Pcc_scenario.Multihop} (droptail chain) wrappers must run
      bit-identically through them;
    - supervised execution: running the scenario as a
      {!Pcc_experiments.Runner} task at [jobs = 1] and [jobs = 2]
      yields identical digests;
    - checkpoint transport: a digest written through
      {!Pcc_experiments.Checkpoint} loads back verbatim.

    The digest deliberately includes float bit patterns ([%h]) so "close
    enough" drift counts as a failure. *)

type failure = { oracle : string; detail : string }
(** [oracle] names the property that failed (e.g. ["invariant:occupancy"],
    ["determinism"], ["wrapper-path"]); the shrinker preserves it while
    minimizing. *)

type stats = { events : int; digest : string }

val digest : Pcc_sim.Engine.t -> Pcc_scenario.Topology.t -> string
(** The exact-match run summary the differential oracles compare. *)

val run_once : Pcc_scenario.Scenario.t -> (stats, failure) result
(** Build and run the scenario once under the invariant checker and the
    semantic sweeps. Never raises: build errors, livelocks and event
    crashes come back as failures. *)

val test :
  ?synth:(Pcc_scenario.Scenario.t -> string option) ->
  ?deep:bool ->
  Pcc_scenario.Scenario.t ->
  failure option
(** Run the full oracle suite; [None] means every oracle passed. [synth]
    is a synthetic-failure hook (the fuzzer wires [PCC_FUZZ_SYNTH]
    through it): returning [Some detail] yields an ["synthetic"] failure
    — how CI exercises the shrink-and-repro pipeline without a real bug.
    [deep] (default [true]) additionally runs the executor jobs-1/2
    and checkpoint differentials, which spawn domains and touch the
    filesystem; the fuzz loop only enables it on a deterministic subset
    of runs. *)
