(** Slot pool with per-slot reusable event closures.

    Eliminates per-packet closure and handle allocation on hot packet
    paths: each slot allocates one closure when the slot first exists,
    and {!event} re-binds that closure to a new payload with a couple
    of array stores. After warm-up (pool capacity reaches the
    steady-state in-flight count) the per-packet path allocates
    nothing.

    Discipline: a closure returned by {!event} must be run exactly
    once — running it a second time raises {!Double_release}, never
    running it leaks the slot. Scheduling it with {!Engine.post} /
    {!Engine.post_in} (which run each posted event exactly once and
    admit no cancellation) satisfies this by construction.

    {b Domain ownership.} A pool belongs to the domain that created it;
    firing a pooled event from any other domain raises
    {!Cross_domain_release}. An engine and everything wired to it run on
    one domain, so the check only fires on a wiring bug. *)

type 'a t

exception Double_release
(** A pooled event closure ran twice: its slot was already free. Always
    a bug in the caller (the exactly-once discipline was violated). *)

exception Cross_domain_release
(** A pooled event fired on a domain that does not own the pool — a
    component built on one domain was driven from another. *)

val create : dummy:'a -> unit -> 'a t
(** [create ~dummy ()] is an empty pool. [dummy] seeds the payload
    array and scrubs released slots (so the pool never pins a fired
    payload); it is never passed to the fire action. *)

val set_fire : 'a t -> ('a -> unit) -> unit
(** Install the action the slot closures run on their payload.
    Mutable because receivers are typically wired after construction;
    closures read the current action at fire time. *)

val event : 'a t -> 'a -> unit -> unit
(** [event t v] checks [v] into a slot and returns the slot's reusable
    closure: running it releases the slot and applies the fire action
    to [v]. Amortized allocation-free (slots and their closures are
    allocated only when the pool grows).
    @raise Double_release if the closure runs a second time.
    @raise Cross_domain_release if the closure runs on a domain that
    does not own the pool. *)

val in_use : 'a t -> int
(** Slots currently checked out (events scheduled but not yet run). *)

val capacity : 'a t -> int
