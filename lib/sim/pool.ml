(* Slot pool with per-slot reusable event closures.

   The simulator's packet paths used to allocate one closure (and, via
   [Engine.schedule_in], one cancellation handle) per packet per hop:
   [fun () -> receiver p] captures a fresh environment every send. This
   pool inverts the capture. Each slot owns one closure, allocated when
   the slot first exists, that reads the slot's *current* payload and
   releases the slot before firing the pool's action. Checking a value
   in ([event]) is then a couple of array stores, and a steady-state
   simulation — where the number of in-flight packets per component is
   bounded by bandwidth-delay products — allocates nothing at all on
   the per-packet path after warm-up.

   Discipline: every closure returned by [event] must be run exactly
   once. Running it twice raises [Double_release]; never running it
   leaks the slot. Scheduling it
   via {!Engine.post}/{!Engine.post_in} satisfies this — posted events
   cannot be cancelled and run exactly once.

   The fire action is mutable ([set_fire]) because receivers are wired
   after construction (see {!Delay_line.set_receiver}); the per-slot
   closures read it at fire time through the pool record. *)

exception Double_release
exception Cross_domain_release

let () =
  Printexc.register_printer (function
    | Double_release ->
      Some
        "Pool.Double_release: a pooled event closure ran twice (its slot \
         was already free)"
    | Cross_domain_release ->
      Some
        "Pool.Cross_domain_release: a pooled event fired on a domain that \
         does not own the pool (it was created on another domain)"
    | _ -> None)

type 'a t = {
  dummy : 'a;
  mutable fire : 'a -> unit;
  mutable slots : 'a array;
  mutable events : (unit -> unit) array;
  mutable live : bool array;  (* per-slot: currently checked out *)
  mutable free : int array;  (* stack of free slot indices *)
  mutable free_top : int;  (* number of valid entries in [free] *)
  mutable in_use : int;
  owner : Domain.id;
      (* The creating domain: an engine and its components live and run
         on one domain, so a fire anywhere else is a wiring bug. *)
}

let create ~dummy () =
  {
    dummy;
    fire = (fun _ -> failwith "Pool: no fire action installed");
    slots = [||];
    events = [||];
    live = [||];
    free = [||];
    free_top = 0;
    in_use = 0;
    owner = Domain.self ();
  }

let set_fire t f = t.fire <- f

let make_event t i () =
  if Domain.self () <> t.owner then raise Cross_domain_release;
  if not t.live.(i) then raise Double_release;
  t.live.(i) <- false;
  let v = t.slots.(i) in
  t.slots.(i) <- t.dummy;
  t.free.(t.free_top) <- i;
  t.free_top <- t.free_top + 1;
  t.in_use <- t.in_use - 1;
  t.fire v

let grow t =
  let cap = Array.length t.slots in
  let ncap = if cap = 0 then 16 else cap * 2 in
  let nslots = Array.make ncap t.dummy in
  let nevents = Array.make ncap ignore in
  let nlive = Array.make ncap false in
  let nfree = Array.make ncap 0 in
  Array.blit t.slots 0 nslots 0 cap;
  Array.blit t.events 0 nevents 0 cap;
  Array.blit t.live 0 nlive 0 cap;
  Array.blit t.free 0 nfree 0 t.free_top;
  t.slots <- nslots;
  t.events <- nevents;
  t.live <- nlive;
  t.free <- nfree;
  for i = ncap - 1 downto cap do
    nevents.(i) <- make_event t i;
    nfree.(t.free_top) <- i;
    t.free_top <- t.free_top + 1
  done

let event t v =
  if t.free_top = 0 then grow t;
  t.free_top <- t.free_top - 1;
  let i = t.free.(t.free_top) in
  t.slots.(i) <- v;
  t.live.(i) <- true;
  t.in_use <- t.in_use + 1;
  t.events.(i)

let in_use t = t.in_use
let capacity t = Array.length t.slots
