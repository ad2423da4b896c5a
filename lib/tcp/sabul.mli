(** SABUL / UDT-style rate-based reliable transport (Gu & Grossman).

    The paper's "full set of boosting techniques" baseline: packet pacing,
    latency monitoring and loss tolerance — but still a hardwired mapping.
    Control law, following UDT's published algorithm: every SYN period
    (10 ms) without loss the rate increases by a step computed from the
    estimated spare capacity (decade-quantized, as in UDT); each new loss
    event (first NAK of a congestion epoch) multiplies the rate by 8/9.
    The capacity estimate comes from the peak ack arrival rate, standing
    in for UDT's receiver-side packet-pair estimate. The result is the
    aggressive overshoot / deep fallback cycle §4.1.1 describes. *)

val create :
  Pcc_sim.Engine.t ->
  rng:Pcc_sim.Rng.t ->
  ?size:int ->
  ?on_complete:(float -> unit) ->
  out:(Pcc_net.Packet.t -> unit) ->
  unit ->
  Pcc_net.Sender.t
(** The rate starts at 1 Mbps and the control caps it at 10 Gbps. [rng]
    draws the repeated cuts within a congestion epoch. [size] bounds the
    transfer in bytes. *)
