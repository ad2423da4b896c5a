(** A unidirectional link: serialization at a bandwidth, a buffer in front
    of it, propagation delay, and optional random channel loss.

    Packets handed to {!send} pass through the queue discipline, are
    serialized one at a time at the link bandwidth, then propagate for the
    link delay (plus optional jitter) before being delivered to the
    receiver callback. Channel loss applies after serialization — a lost
    packet still consumed bottleneck bandwidth, which is how random
    (non-congestion) loss behaves on real lossy links.

    Bandwidth, delay, loss rate and jitter can be changed while the
    simulation runs (the rapidly-changing-network experiment of §4.1.7 and
    the fault-injection layer depend on this). The link can also be put
    into pathological-path episodes — packet duplication and reordering —
    via {!set_duplication} and {!set_reordering}.

    The link keeps conservation counters ({!offered_pkts},
    {!in_flight_pkts}, {!delivered_pkts}, {!channel_losses},
    {!duplicated_pkts}) precise enough that at any instant between events

    {[offered + duplicated
      = delivered + channel_losses + queue drops + queued + in flight]}

    which is the packet-conservation invariant checked by
    [Pcc_scenario.Invariant]. *)

type t

val create :
  Pcc_sim.Engine.t ->
  ?name:string ->
  ?loss:float ->
  ?jitter:float ->
  rng:Pcc_sim.Rng.t ->
  bandwidth:float ->
  delay:float ->
  queue:Queue_disc.t ->
  unit ->
  t
(** [create engine ~rng ~bandwidth ~delay ~queue ()] is a link with the
    given bandwidth (bits per second), one-way propagation [delay]
    (seconds), Bernoulli channel [loss] probability (default 0) and
    uniform extra [jitter] (seconds, default 0). The receiver must be
    attached with {!set_receiver} before any packet finishes propagation.
    @raise Invalid_argument if [bandwidth <= 0] or [delay < 0]. *)

val set_receiver : t -> (Packet.t -> unit) -> unit
(** [set_receiver t f] makes [f] the delivery callback at the far end. *)

val send : t -> Packet.t -> unit
(** [send t p] offers [p] to the link's buffer; it is silently dropped if
    the queue discipline rejects it. *)

val set_bandwidth : t -> float -> unit
(** Change the serialization rate for subsequently transmitted packets.

    {b Mid-transmission semantics:} a packet whose serialization is already
    in progress completes at the {e old} rate — its completion event was
    scheduled when serialization began and is deliberately not rescheduled.
    The new rate takes effect with the next packet dequeued. This mirrors a
    real-world rate change taking effect at the next frame boundary, and it
    means a bandwidth-cliff fault injected mid-packet delays the rate
    change's first observable effect by at most one serialization time.
    The regression test ["bandwidth change mid-transmission"] in
    [test/test_net.ml] pins this behaviour.
    @raise Invalid_argument if the rate is not positive. *)

val set_delay : t -> float -> unit
(** Change the propagation delay for subsequently transmitted packets.
    Packets already propagating keep their old arrival time, so a delay
    {e decrease} can reorder deliveries — exactly as on a real rerouted
    path. *)

val set_loss : t -> float -> unit
(** Change the channel loss probability (clamped to [\[0,1\]]). *)

val set_jitter : t -> float -> unit
(** Change the uniform extra propagation-delay bound (seconds).
    @raise Invalid_argument if negative. *)

val set_duplication : t -> float -> unit
(** [set_duplication t p] makes each successfully propagated packet be
    delivered a second time with probability [p] (clamped to [\[0,1\]]).
    Duplicates consume no extra serialization time — they model a
    duplicating middlebox after the bottleneck. *)

val set_reordering : t -> prob:float -> extra:float -> unit
(** [set_reordering t ~prob ~extra] delays each propagated packet by an
    additional [extra] seconds with probability [prob], causing it to
    arrive behind later-sent packets.
    @raise Invalid_argument if [extra < 0]. *)

val bandwidth : t -> float
val delay : t -> float
val loss : t -> float
val jitter : t -> float
val queue : t -> Queue_disc.t

val offered_pkts : t -> int
(** Packets ever handed to {!send}, whether or not the queue accepted
    them. *)

val in_flight_pkts : t -> int
(** Packets currently being serialized (0 or 1) plus packets propagating
    toward the receiver (including scheduled duplicates). *)

val delivered_pkts : t -> int
(** Packets that reached the receiver callback (duplicates included). *)

val delivered_bytes : t -> int
val channel_losses : t -> int
(** Packets dropped by the random-loss process (not by the queue). *)

val duplicated_pkts : t -> int
(** Extra deliveries scheduled by the duplication episode. *)

val duplicated_bytes : t -> int
(** Bytes of those extra deliveries — duplicates consume no serialization
    time, so throughput bounds subtract them from {!delivered_bytes}. *)

val reordered_pkts : t -> int
(** Packets given the reordering extra delay. *)

val busy_time : t -> float
(** Cumulative time the transmitter spent serializing packets — divided by
    elapsed time this is the link utilization. *)

val name : t -> string
(** The diagnostics label given at {!create}. *)

val trace_id : t -> int
(** The link's identity in the trace layer's link id space (see
    [Pcc_trace]); assigned at {!create} from a process-global counter. *)
