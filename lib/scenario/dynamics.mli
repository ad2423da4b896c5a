(** The rapidly-changing-network driver of §4.1.7: every [period] one
    topology link's bandwidth, base RTT and loss rate are redrawn
    uniformly from the given ranges. Records the bandwidth (= optimal
    send rate) series for comparison with each protocol's rate tracking.

    On a {!Topology.dumbbell}, the default link 0 is the bottleneck. *)

type t

val start :
  Pcc_sim.Engine.t ->
  rng:Pcc_sim.Rng.t ->
  topo:Topology.t ->
  ?link:Topology.link_id ->
  ?period:float ->
  ?bw_range:float * float ->
  ?rtt_range:float * float ->
  ?loss_range:float * float ->
  unit ->
  t
(** Paper parameters by default: link 0, period 5 s, bandwidth
    10–100 Mbps, RTT 10–100 ms, loss 0–1 %. The first redraw happens
    immediately. RTT redraw goes through {!Topology.set_base_rtt}, so it
    retargets the chosen link's delay plus every ideal reverse line.
    @raise Invalid_argument if [link] is out of range. *)

val stop : t -> unit

val optimal_series : t -> (float * float) array
(** [(time, bandwidth_bps)] at each change point. *)

val mean_optimal : t -> until:float -> float
(** Time-weighted mean of the optimal rate from the start until
    [until]. *)
