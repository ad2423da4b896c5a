(** Delivery bookkeeping for reliable senders.

    Tracks which sequence numbers are outstanding, selectively or
    cumulatively acknowledged, or presumed lost, and maintains the
    retransmission queue. Loss is declared either by the SACK-gap rule
    (three acks above a hole — {!detect_losses}) or externally
    ({!mark_lost}, used by PCC when a monitor-interval deadline passes),
    and every outstanding sequence is requeued by {!go_back_n} after a
    retransmission timeout. Every reliable sender shares it: the TCP
    window engine and the rate-based SABUL, PCP and PCC.

    Per-ack cost: {!on_ack} is O(sequences it resolves) plus an
    amortized O(1) scan of the band the SACK frontier newly covers.
    {!detect_losses} is O(1) when no loss candidate is due; otherwise
    it pops the d due candidates from a heap of h at O(d log h) and
    sorts the k declared lost. Only {!sweep_stale} and {!go_back_n},
    which run on timers, scan the window. *)

type t

val create : ?dupthresh:int -> unit -> t
(** [dupthresh] defaults to 3. *)

val fresh_seq : t -> int option
(** Allocate the next new sequence number, or [None] if the transfer
    bound given to {!limit_pkts} is exhausted. *)

val limit_pkts : t -> int -> unit
(** Bound the transfer to the first [n] sequence numbers. *)

val record_send : t -> int -> now:float -> unit
(** Note that [seq] was put on the wire (fresh or retransmission) at time
    [now]. *)

val on_ack : t -> Packet.ack -> int list
(** Fold in an acknowledgment; returns the sequences newly known
    delivered (empty for duplicates). Besides the directly acked
    sequence this includes any holes covered by the cumulative ack —
    packets whose own acks were lost on the reverse path. *)

val detect_losses :
  ?highest_first:bool -> t -> now:float -> min_age:float -> int list
(** Sequences newly presumed lost by the SACK-gap rule, in increasing
    order; they are moved to the retransmission queue as a side effect,
    lowest first or, with [~highest_first:true], highest first.
    Holes whose last transmission is younger than [min_age] (typically
    ~one smoothed RTT) are skipped — without this guard an in-flight
    retransmission, which necessarily sits below the SACK frontier, would
    be re-declared lost on every subsequent ack. *)

val mark_lost : t -> int -> now:float -> min_age:float -> bool
(** [mark_lost t seq ~now ~min_age] declares [seq] lost if it is still
    outstanding and its last transmission is at least [min_age] old
    (guarding against declaring an in-flight retransmission lost);
    returns whether anything changed. *)

val sweep_stale : t -> now:float -> min_age:float -> int list
(** Declare lost every outstanding sequence whose last transmission is at
    least [min_age] old, moving them to the retransmission queue. This is
    the retransmission-timeout analogue for rate-based transports (UDT's
    EXP timer): the backstop for tail losses that SACK-gap detection can
    never resolve because nothing was sent after them. Queues the
    sequences highest first. *)

val go_back_n : t -> unit
(** Declare every outstanding sequence lost and queue it for
    retransmission, lowest first: TCP's response to a retransmission
    timeout. Afterwards {!inflight} is 0. *)

val take_retx : t -> int option
(** Next sequence needing retransmission, skipping any that were delivered
    in the meantime. *)

val has_retx : t -> bool

val has_data : t -> bool
(** Whether a retransmission is queued or {!fresh_seq} has a sequence
    left. *)

val high_ack : t -> int
(** Highest cumulatively acknowledged sequence ([-1] initially). *)

val inflight : t -> int
val acked_pkts : t -> int
val next_seq : t -> int
(** The next fresh sequence number that {!fresh_seq} would return. *)

val complete : t -> bool
(** Whether a {!limit_pkts}-bounded transfer is fully delivered. *)
