(** Cancellation handles shared by the event queues.

    A handle is issued by an event queue ({!Timing_wheel}, which an
    {!Engine} runs on, or its reference {!Event_heap}); cancellation is
    lazy — the queue drops dead entries when they surface — but the
    shared live counter keeps queue sizes exact the instant a handle is
    cancelled. A {!Timing_wheel} handle can be re-armed once it is no
    longer pending; its generation tells the wheel which of its entries
    is current. *)

type t = { mutable state : int; mutable gen : int; live : int ref }
(** [state]: 0 pending, 1 cancelled, 2 popped or idle. [gen] counts the
    times the handle was armed. [live] aliases the owning queue's
    live-entry counter. The representation is exposed so queue
    implementations in this library can flip states without a call;
    code outside the schedulers should treat it as abstract and use
    {!cancel}/{!cancelled}. *)

val make : int ref -> t
(** [make live] is a fresh pending handle accounted against [live]. *)

val cancel : t -> unit
(** Mark pending → cancelled and decrement the live counter. Cancelling
    an already-cancelled or already-popped handle is a no-op. *)

val cancelled : t -> bool
(** Whether the handle is in the cancelled state (popped ≠ cancelled). *)
