(** The window-based TCP sending engine.

    Owns everything the paper calls TCP's architecture except the
    hardwired event→response mapping itself, which is supplied as a
    {!Variant.t}: transmission clocked by a congestion window, per-packet
    SACK loss detection on the shared {!Pcc_net.Scoreboard}, fast
    retransmit (highest hole first) after three selective acks above a
    hole, one window reduction per recovery episode, RTO with exponential
    backoff and a configurable floor, go-back-N (lowest first) after a
    timeout, and optional packet pacing (the "TCP Pacing" baseline of
    §4.1.6). *)

type config = {
  variant : Variant.t;
  pacing : bool;  (** Space packets at cwnd/srtt instead of ack bursts. *)
  init_cwnd : float;  (** Initial window in packets (default 2). *)
  min_rto : float;  (** RTO floor in seconds (default 0.2). *)
  max_cwnd : float;  (** Receive-window stand-in, in packets. *)
  dupthresh : int;  (** SACKs above a hole before it is declared lost. *)
  initial_rtt : float;  (** RTT guess before the first sample. *)
}

val default_config : Variant.t -> config
(** Linux-like defaults: no pacing, init cwnd 2, min RTO 200 ms,
    max cwnd 10⁶, dupthresh 3, initial RTT 50 ms. *)

type t

val create :
  Pcc_sim.Engine.t ->
  config ->
  ?size:int ->
  ?on_complete:(float -> unit) ->
  out:(Pcc_net.Packet.t -> unit) ->
  unit ->
  t
(** [create engine config ~out ()] is a TCP sender pushing packets into
    [out] (the forward path). [size] bounds the transfer in bytes;
    [on_complete] fires once when the last byte is cumulatively acked. *)

val sender : t -> Pcc_net.Sender.t
(** The uniform transport interface for the scenario harness. *)

(** {1 Introspection (tests, debugging)} *)

val cwnd : t -> float
val timeouts : t -> int
val fast_retransmits : t -> int
val srtt : t -> float option
