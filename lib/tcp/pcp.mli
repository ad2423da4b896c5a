(** PCP-style bandwidth-probing transport (Anderson et al., NSDI 2006).

    Emulates fair-queuing behaviour from the edge: the sender keeps a base
    rate it believes is safe and periodically *probes* a higher rate with a
    short packet train. If the acknowledgment train preserves the send
    spacing (no queueing developed), the probe rate is adopted and the
    next target doubles; if dispersion grew, the target binary-searches
    downward. §5 of the PCC paper notes the embedded assumption — that
    ack spacing faithfully reflects bottleneck dispersion — breaks under
    latency jitter, making PCP underestimate; our links' jitter parameter
    reproduces exactly that failure. *)

val create :
  Pcc_sim.Engine.t ->
  ?size:int ->
  ?on_complete:(float -> unit) ->
  out:(Pcc_net.Packet.t -> unit) ->
  unit ->
  Pcc_net.Sender.t
(** The base rate starts at 1 Mbps (the paper's PCP configuration), the
    control caps it at 10 Gbps, and each probe is a 10-packet train. *)
