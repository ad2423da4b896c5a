(** The performance-monitoring module of §3.1.

    Slices the timeline into monitor intervals (MIs). Every data packet the
    sender emits is charged to the MI open at that instant; as SACKs come
    back the monitor aggregates them, and one RTT (plus margin) after an MI
    closes it is evaluated: throughput, loss rate and average RTT over
    exactly the packets sent within it. Results are delivered to the
    control module strictly in MI order.

    MI length follows the paper: the maximum of (a) the time to send
    [min_pkts] packets at the MI's rate and (b) a uniformly random multiple
    in [[rtt_lo, rtt_hi]] of the current RTT estimate (default [1.7,2.2]);
    randomization avoids phase-locking with periodic network events. When
    the controller changes rate mid-MI, {!realign} restarts the MI at the
    new rate (the optimization described at the end of §3.1). *)

type result = {
  id : int;  (** MI sequence number, starting at 0. *)
  rate : float;  (** Target rate during the MI, bits/s. *)
  start_time : float;
  duration : float;  (** Actual open interval length, s. *)
  sent_pkts : int;
  acked_pkts : int;
  sent_bytes : int;
  acked_bytes : int;
  loss : float;  (** 1 − acked/sent; 0 for an empty MI. *)
  avg_rtt : float option;  (** Mean RTT sample over the MI's acks. *)
  prev_avg_rtt : float option;
  utility : float;  (** Filled by the monitor via its utility function. *)
}

type config = {
  min_pkts : int;  (** MI must cover at least this many packets (10). *)
  rtt_lo : float;  (** Lower RTT multiple for MI length (1.7). *)
  rtt_hi : float;  (** Upper RTT multiple (2.2). *)
  eval_margin : float;
      (** Fallback deadline, in RTT multiples past the MI close, after
          which unresolved packets are declared lost (2.0). Normally every
          packet resolves earlier through acks or gap detection. *)
  initial_rtt : float;  (** RTT estimate before any sample (0.05 s). *)
}

val default_config : config

type t

val create :
  Pcc_sim.Engine.t ->
  config ->
  rng:Pcc_sim.Rng.t ->
  utility:Utility.t ->
  cum_ack:(unit -> int) ->
  rate_for_mi:(id:int -> float) ->
  on_result:(result -> unit) ->
  on_mi_losses:(int list -> unit) ->
  t
(** [cum_ack ()] is the sender's cumulative ack; sequences at or below
    it are never sent again. [rate_for_mi] is consulted each time a new
    MI opens — this is how the controller drives the rate plan.
    [on_result] receives evaluated MIs in id order. [on_mi_losses]
    reports sequence numbers still unacknowledged at evaluation time
    (the sender retransmits them). *)

val start : t -> unit
(** Open MI 0 at the current time. *)

val stop : t -> unit
(** Stop opening MIs; pending ones still evaluate. *)

val on_send : t -> seq:int -> size:int -> unit
(** Charge one transmitted data packet to the current MI. *)

val on_ack : t -> seq:int -> rtt:float option -> size:int -> unit
(** Credit an acknowledged packet to whichever pending MI sent it
    (duplicate acks for the same seq are counted once). *)

val on_lost : t -> seq:int -> unit
(** Resolve a packet the sender's SACK-gap detection declared lost, so
    its MI can evaluate without waiting for the fallback deadline. *)

val realign : t -> unit
(** Close the current MI immediately and open a fresh one (rate change). *)

val current_rate : t -> float
(** Rate of the currently open MI. *)

val rtt_estimate : t -> float
(** EWMA of RTT samples, used for MI sizing and evaluation deadlines. *)

val current_mi_id : t -> int

val set_trace_id : t -> int -> unit
(** Set the flow id the monitor stamps on its trace records (MI open /
    result / discard, see [Pcc_trace]); default [-1]. The PCC sender
    sets it to its packet flow id right after wiring. *)
