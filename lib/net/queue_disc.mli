(** Queue disciplines for link buffers.

    A queue discipline is a first-class value so links can be composed with
    DropTail, CoDel, RED or fair-queuing buffers without functorizing the
    link code. Disciplines are allowed to drop packets at enqueue time
    (DropTail, RED) or at dequeue time (CoDel); all drops are counted.

    Every discipline buffers packets in the same FIFO: a chain of
    fixed-size chunks, reused as the queue drains and refills, so an
    enqueue allocates nothing (a queue allocates only when it grows past
    its longest length so far). Each dequeued slot is cleared, so a
    queue never keeps a sent packet alive. The FIFO keeps each packet's
    enqueue time beside it, slot for slot, in an unboxed [float array];
    CoDel reads its sojourn times there, since packets are immutable. *)

type t = {
  name : string;
  enqueue : now:float -> Packet.t -> bool;
      (** [enqueue ~now p] accepts or drops [p]; [false] means dropped. *)
  dequeue : now:float -> Packet.t option;
      (** [dequeue ~now] removes the next packet to transmit, possibly
          dropping packets internally first (CoDel). *)
  peek : unit -> Packet.t option;
      (** The packet {!dequeue} would consider next, without removing it.
          For disciplines with dequeue-time drops this is a hint only. *)
  len_bytes : unit -> int;  (** Bytes currently buffered. *)
  len_pkts : unit -> int;  (** Packets currently buffered. *)
  drops : unit -> int;  (** Total packets dropped so far. *)
  capacity_bytes : unit -> int option;
      (** The discipline's byte-occupancy bound, if it has one: the
          invariant checker asserts [len_bytes () <= capacity]. [None] for
          unbounded queues. Packet-limited queues report
          [capacity * MSS]; fair queuing reports the sum of its current
          sub-queues' bounds, which grows as flows appear. *)
}

val droptail_bytes : capacity:int -> unit -> t
(** FIFO with a byte-capacity limit: an arriving packet that does not fit
    entirely is dropped. [capacity] is clamped up to one MSS so a single
    packet can always be buffered (a zero-buffer router could never forward
    anything). *)

val droptail_pkts : capacity:int -> unit -> t
(** FIFO limited to [capacity] packets (at least 1). *)

val infinite : unit -> t
(** FIFO that never drops — used for uncongested reverse paths and for
    "bufferbloat" scenarios. *)

val codel :
  ?target:float -> ?interval:float -> capacity:int -> unit -> t
(** The CoDel AQM (Nichols & Jacobson) over a byte-limited FIFO:
    packets whose queue sojourn time stays above [target] (default 5 ms)
    for at least [interval] (default 100 ms) are dropped at dequeue, with
    the drop rate increasing by the inverse-sqrt control law. *)

val red :
  ?min_th:int -> ?max_th:int -> ?max_p:float -> capacity:int -> unit -> t
(** Random Early Detection over a byte-limited FIFO: arriving packets are
    dropped with probability rising linearly from 0 at [min_th] bytes of
    average queue to [max_p] at [max_th], and always beyond. The averaging
    uses an EWMA with the classic 1/512 weight per arrival. Thresholds
    default to capacity/4 and capacity/2. *)

val fq : ?quantum:int -> per_flow:(unit -> t) -> unit -> t
(** Deficit-round-robin fair queuing: each flow gets its own sub-queue
    built by [per_flow] and service rotates with byte [quantum] (default
    one MSS, clamped up to one MSS). Models Linux [fq] used in §4.4. *)
