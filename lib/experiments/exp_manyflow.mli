(** Many-flow fan-in stress scenario (not a paper figure).

    Drives a large population of PCC flows — 10k at [scale = 1], 100k at
    [scale = 10] — through one shared bottleneck to prove the simulator
    sustains that concurrency: hundreds of thousands of pending timers
    through the scheduler, allocation-free packet events on every hop, and a
    deterministic outcome. The rendered table contains only simulation
    state (completions, goodput, queue high-water mark, event count), so
    a fixed seed renders byte-identically at any job count. The round
    fails (for the executor to catch)
    if fewer than 90% of flows complete, aggregate goodput exceeds the
    bottleneck capacity, or the peak event-queue depth is implausibly
    small for the flow count. *)

type row = {
  flows : int;
  completed : int;
  goodput_mbps : float;  (** aggregate, over the last completion *)
  mean_fct : float;
  peak_pending : int;  (** high-water mark of queued events *)
  events : int;
}

val topology :
  Pcc_sim.Engine.t ->
  rng:Pcc_sim.Rng.t ->
  n:int ->
  bandwidth:float ->
  rtt:float ->
  Pcc_scenario.Topology.t
(** The fan-in graph itself: [n] sized PCC flows with staggered starts
    and spread RTTs over one bottleneck. Shared with
    [pcc_sim topo --shape fanin-large]. *)

val default_bandwidth : float
val default_rtt : float

val flows_for_scale : float -> int
(** [10_000 * scale], floored at 50. *)

val run :
  ?pool:Runner.t ->
  ?scale:float ->
  ?seed:int ->
  ?flows:int ->
  unit ->
  row list
(** [flows] overrides the [scale]-derived population. *)

val table : row list -> Exp_common.table
