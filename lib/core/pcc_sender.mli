(** A complete PCC transport endpoint (Fig. 2 of the paper).

    Wires the monitor module, the utility function and the
    performance-oriented control module onto the sending module that PCC
    shares with the other rate-based transports ({!Pcc_net.Rate_sender}:
    pacer, reliability scoreboard, send loop and ack skeleton). Data flows
    continuously: the pacer emits packets at the controller's rate, the
    monitor charges them to monitor intervals and aggregates the returning
    SACKs, evaluated intervals feed the controller, and the controller's
    rate changes re-align the monitor and retune the pacer. *)

type config = {
  controller : Controller.config;
  monitor : Monitor.config;
  utility : Utility.t;
}

val default_config : config
(** Paper defaults: safe utility, ε ∈ [0.01, 0.05] with RCT, MI of
    max(10 pkts, U[1.7,2.2]·RTT). *)

val config_with :
  ?utility:Utility.t ->
  ?rct:bool ->
  ?eps_min:float ->
  ?mi_rtt:float * float ->
  ?init_rate:float ->
  ?algorithm:Controller.algorithm ->
  unit ->
  config
(** Convenience for experiment sweeps over the interesting knobs. *)

type t

val create :
  Pcc_sim.Engine.t ->
  ?config:config ->
  ?size:int ->
  ?on_complete:(float -> unit) ->
  rng:Pcc_sim.Rng.t ->
  out:(Pcc_net.Packet.t -> unit) ->
  unit ->
  t
(** [create engine ~rng ~out ()] is a PCC sender pushing packets into
    [out]. [size] bounds the transfer in bytes; [on_complete] fires when
    the last byte is cumulatively acknowledged. *)

val sender : t -> Pcc_net.Sender.t
(** The uniform transport interface for the scenario harness. *)

(** {1 Introspection} *)

val controller : t -> Controller.t
val monitor : t -> Monitor.t
val current_rate : t -> float
(** The controller's base rate, bits/s. *)
