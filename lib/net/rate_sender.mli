(** The shared body of a paced, rate-based reliable sender (PCC, SABUL,
    PCP): Fig. 2's sending module, without its control module.

    It owns the {!Scoreboard}, the send loop, the ack skeleton (SACK-gap
    losses older than 0.8 srtt, then completion or a pacer kick), a
    periodic tick (the law's step, then {!Scoreboard.sweep_stale} and a
    kick if retransmissions wait), the lifecycle and the {!Sender.t}. A
    protocol supplies its control law as hooks built once per flow. Hooks
    read [Engine.now] themselves: a closure boxes a float argument on
    every call. *)

type t

val create :
  Pcc_sim.Engine.t ->
  rate:float ->
  srtt:float ->
  ?size:int ->
  out:(Packet.t -> unit) ->
  unit ->
  t * Rate_pacer.t
(** [create engine ~rate ~srtt ~out ()] takes a flow id, then makes the
    scoreboard and a stopped pacer at [rate] bits/s for the law to drive.
    [srtt] holds until the first sample. [size] bounds the transfer in
    bytes. *)

val sender :
  ?on_complete:(float -> unit) ->
  t ->
  Rate_pacer.t ->
  name:string ->
  on_start:(unit -> float) ->
  on_stop:(unit -> unit) ->
  on_send:(int -> unit) ->
  on_ack:(Packet.ack -> int list -> unit) ->
  on_losses:(int list -> unit) ->
  on_tick:(unit -> float) ->
  stale_rtts:float ->
  on_stale:(int list -> unit) ->
  rate:(unit -> float) ->
  Sender.t
(** The flow's one {!Sender.t}. [on_complete] fires once, when the whole
    transfer is acknowledged. The law's hooks:
    - [on_start] runs before the pacer starts and returns the delay to the
      first tick; [on_stop] runs after it stops, also on completion;
    - [on_send] gets the sequence about to go on the wire;
    - [on_ack] gets the sequences {!Scoreboard.on_ack} delivered, before
      loss detection reads the srtt; [on_losses] the SACK-gap losses, if
      any;
    - [on_tick] is the step; it returns the delay to the next tick. The
      sweep then declares lost what was sent [stale_rtts] srtts ago and
      hands it to [on_stale];
    - [rate] is the rate estimate, bits/s. *)

val flow : t -> int
val scoreboard : t -> Scoreboard.t

val active : t -> bool
(** Started, and neither stopped nor complete. *)

val srtt : t -> float
(** Read by loss detection, the sweep and {!Sender.t.srtt}, seconds. *)

val smooth_srtt : t -> Packet.ack -> unit
(** SABUL's and PCP's estimator: 7/8 old, 1/8 the ack's sample (none on
    a retransmission's ack). *)

val set_srtt : t -> float -> unit
(** For a law that keeps its own estimate. *)
