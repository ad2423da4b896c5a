(** Common interface every transport sender implements.

    The scenario harness treats transports uniformly: it feeds arriving
    acknowledgments to {!field-handle_ack} and reads progress counters. Each
    concrete transport (the TCP variants, SABUL, PCP, and PCC itself)
    produces one of these records from its [create] function. *)

type t = {
  flow : int;  (** The flow id this sender stamps on its packets. *)
  name : string;  (** Human-readable transport name, e.g. ["cubic"]. *)
  start : unit -> unit;  (** Begin transmitting. Idempotent. *)
  stop : unit -> unit;
      (** Cease transmitting and cancel the send timers. The rate-based
          senders ({!Rate_sender}) leave their periodic tick pending: it
          fires once more and does nothing. *)
  handle_ack : Packet.ack -> unit;
      (** Process one acknowledgment arriving on the reverse path. *)
  rate_estimate : unit -> float;
      (** The sender's current target sending rate in bits per second —
          cwnd/RTT for window-based transports, the controller's rate for
          rate-based ones. Used for rate-tracking plots (Fig. 11). *)
  acked_bytes : unit -> int;
      (** Payload bytes known delivered (cumulatively acked). *)
  srtt : unit -> float;
      (** Current smoothed RTT estimate, seconds (a configuration guess
          before the first sample). Used for the power metric. *)
  sent_pkts : unit -> int;  (** Data packets transmitted, incl. retx. *)
  is_complete : unit -> bool;
      (** For finite transfers: whether all bytes are acked. *)
}
