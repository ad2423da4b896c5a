(** The trace event vocabulary.

    Every trace record is a fixed-size cell: a timestamp (simulated
    seconds, from [Engine.now]), a {!kind}, one subject id (whose meaning
    — flow, link, or engine-global — is fixed by the kind's {!scope}),
    two float payload slots [a]/[b] and one integer payload slot [i].
    Keeping the payload unboxed and positional is what lets the collector
    preallocate its ring as plain arrays; the per-kind payload meaning is
    documented on each constructor and decoded by [Pcc_trace.Export]. *)

type kind =
  | Dispatch
      (** Engine executed one event. [a] = events still pending after the
          pop, [i] = the engine's lifetime executed counter. *)
  | Enqueue
      (** A link accepted a packet into its queue. [id] = link,
          [a] = queue occupancy in bytes after the enqueue, [i] = flow id
          of the packet. *)
  | Drop
      (** A link's queue discipline rejected a packet. [id] = link,
          [a] = queue occupancy in bytes at the drop, [i] = flow id. *)
  | Queue_sample
      (** Periodic occupancy probe. [id] = link, [a] = queued bytes,
          [i] = queued packets. *)
  | Mi_start
      (** A monitor interval opened. [id] = flow, [a] = MI target rate
          (bits/s), [b] = planned duration (s), [i] = MI id. *)
  | Mi_end
      (** A monitor interval was evaluated. [id] = flow, [a] = utility,
          [b] = loss rate, [i] = MI id. *)
  | Mi_discard
      (** A partially elapsed MI was discarded by a §3.1 re-alignment.
          [id] = flow, [i] = MI id. *)
  | Rate_change
      (** The controller moved its base rate. [id] = flow, [a] = new rate
          (bits/s), [b] = previous rate (bits/s), [i] = phase and step
          packed by {!pack_rate_info}. *)
  | Cwnd
      (** A TCP sender's congestion window changed. [id] = flow,
          [a] = cwnd (packets), [b] = ssthresh (packets), [i] = cause
          (0 = ack growth, 1 = loss / fast retransmit, 2 = RTO). *)
  | Flow_start  (** A scenario flow started. [id] = flow. *)
  | Flow_stop  (** A scenario flow was stopped. [id] = flow. *)
  | Flow_complete
      (** A sized flow finished. [id] = flow, [a] = flow completion
          time (s). *)
  | Gradient_step
      (** A Vivace controller took one gradient-ascent step. [id] = flow,
          [a] = the measured utility gradient (utility units per Mbps),
          [b] = the new base rate (bits/s), [i] = direction, boundary
          clamp and confidence amplifier packed by
          {!pack_gradient_info}. *)
  | Utility_switch
      (** A Proteus utility changed class (e.g. a scavenger moving
          between probing and yielding). [id] = flow, [a] = the class it
          switched to (as a float of {!Pcc_core.Utility} class codes),
          [b] = the class it left, [i] = the MI id whose metrics
          triggered the switch. *)

type scope = Engine_scope | Link_scope | Flow_scope
(** The id space a record's [id] field indexes. *)

(** {1 Categories}

    Kinds are grouped into categories so a collector can mask whole
    subsystems out; the hot-path cost of a masked-out category is the
    emit call's mask test. *)

val cat_engine : int
val cat_link : int
val cat_pcc : int
val cat_tcp : int
val cat_flow : int

val cat_all : int

val cat_default : int
(** Everything except {!cat_engine} — per-dispatch records are an order
    of magnitude more voluminous than the rest and are opt-in. *)

val cat_of_kind : kind -> int

val cat_of_string : string -> int option
(** Parse one category name (["engine"], ["link"], ["pcc"], ["tcp"],
    ["flow"], ["all"], ["default"]). *)

val int_of_kind : kind -> int
(** Dense encoding for the collector's ring. *)

val kind_of_int : int -> kind
(** @raise Invalid_argument on an out-of-range encoding. *)

(** {1 Payload packing} *)

val pack_rate_info : phase:int -> step:int -> int
(** [phase] is 0 (starting), 1 (decision) or 2 (adjusting); [step] is
    the adjusting ladder step (0 outside the adjusting phase). *)

val rate_phase : int -> int
val rate_step : int -> int

val pack_gradient_info : up:bool -> clamped:bool -> amp:int -> int
(** [up] is the step direction, [clamped] whether the step hit the
    dynamic change boundary, [amp] the confidence amplifier m. *)

val gradient_up : int -> bool
val gradient_clamped : int -> bool
val gradient_amp : int -> int

type record = {
  time : float;  (** Simulated seconds. *)
  kind : kind;
  id : int;
  a : float;
  b : float;
  i : int;
}
(** A decoded ring cell, as returned by [Collector.events]. *)
