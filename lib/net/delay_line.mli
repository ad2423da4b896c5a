(** A pure propagation-delay element with no bandwidth constraint or
    buffer, optionally with Bernoulli loss. Used for per-flow access
    segments (so competing flows can have different RTTs while sharing one
    bottleneck {!Link}) and for uncongested-but-lossy reverse paths. *)

type t

val create :
  Pcc_sim.Engine.t ->
  ?loss:float ->
  ?rng:Pcc_sim.Rng.t ->
  delay:float ->
  unit ->
  t
(** [create engine ~delay ()] delays every packet by [delay] seconds. If
    [loss] is positive an [rng] must be supplied; packets are then dropped
    independently with that probability.
    @raise Invalid_argument if [delay < 0], or if [loss > 0] without
    an [rng]. *)

val set_receiver : t -> (Packet.t -> unit) -> unit
(** Attach the downstream delivery callback. *)

val send : t -> Packet.t -> unit
(** Forward a packet; it arrives downstream after the configured delay
    unless lost. *)

val set_delay : t -> float -> unit
(** Change the delay for subsequent packets. *)

val set_loss : t -> float -> unit
(** Change the loss probability (requires an [rng] at creation if > 0). *)

val delay : t -> float
