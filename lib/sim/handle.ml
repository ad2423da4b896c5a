(* Cancellation handle shared by the event queues.

   state: 0 = pending (queued), 1 = cancelled, 2 = popped. [live]
   aliases the owning queue's exact live-entry counter so [cancel] —
   which has no queue argument — can keep that count exact without a
   back-pointer to the queue itself. Both Event_heap and Timing_wheel
   store handles of this one type, so the heap stays a drop-in reference
   for the wheel in the differential tests. *)

type t = { mutable state : int; live : int ref }

let make live = { state = 0; live }

let cancel h =
  if h.state = 0 then begin
    h.state <- 1;
    decr h.live
  end

let cancelled h = h.state = 1
