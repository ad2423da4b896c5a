(* The engine's event queue: the timing wheel against its contract, and
   against the binary heap as a reference. The load-bearing property
   everywhere is exact (time, seq) dispatch order — same-time events
   come out in insertion order, exactly as the heap pops them. *)

open Pcc_sim
module EH = Event_heap
module TW = Timing_wheel

(* The wheel covers [cur, cur + 2^48) ticks of 1 µs; anything at or
   beyond that horizon waits in the overflow heap. *)
let beyond_horizon = TW.tick_seconds *. 2. ** 48.

let drain_wheel w =
  let out = ref [] in
  let rec go () =
    match TW.pop w with
    | Some (t, v, ()) ->
      out := (t, v) :: !out;
      go ()
    | None -> ()
  in
  go ();
  List.rev !out

let drain_heap h =
  let out = ref [] in
  let rec go () =
    match EH.pop h with
    | Some (t, v) ->
      out := (t, v) :: !out;
      go ()
    | None -> ()
  in
  go ();
  List.rev !out

(* Same-time events dispatch in insertion order, with push and
   push_unit drawing from one sequence counter. *)
let test_fifo_tie_break () =
  let w = TW.create ~dummy:(-1) ~dummy_arg:() () in
  ignore (TW.push w ~time:1. 0 ());
  TW.push_unit w ~time:1. 1 ();
  ignore (TW.push w ~time:0.5 2 ());
  TW.push_unit w ~time:1. 3 ();
  ignore (TW.push w ~time:1. 4 ());
  Alcotest.(check (list int))
    "insertion order within a tie" [ 2; 0; 1; 3; 4 ]
    (List.map snd (drain_wheel w));
  (* Sub-tick spacing: distinct times less than a tick apart must still
     come out in time order, not slot order. *)
  let w = TW.create ~dummy:(-1) ~dummy_arg:() () in
  ignore (TW.push w ~time:(1. +. 0.9e-6) 0 ());
  ignore (TW.push w ~time:(1. +. 0.1e-6) 1 ());
  ignore (TW.push w ~time:1. 2 ());
  Alcotest.(check (list int))
    "sub-tick times keep exact order" [ 2; 1; 0 ]
    (List.map snd (drain_wheel w))

let test_cancel_accounting () =
  let w = TW.create ~dummy:(-1) ~dummy_arg:() () in
  let handles = Array.init 100 (fun i -> TW.push w ~time:(float_of_int i) i ()) in
  Alcotest.(check int) "size counts live entries" 100 (TW.size w);
  Array.iteri (fun i h -> if i mod 2 = 0 then TW.cancel h) handles;
  Alcotest.(check int) "cancel drops size immediately" 50 (TW.size w);
  TW.cancel handles.(0);
  Alcotest.(check int) "double cancel is a no-op" 50 (TW.size w);
  let popped = drain_wheel w in
  Alcotest.(check (list int))
    "cancelled entries never surface"
    (List.init 50 (fun i -> (2 * i) + 1))
    (List.map snd popped);
  Alcotest.(check int) "empty after drain" 0 (TW.size w);
  Alcotest.(check bool) "is_empty after drain" true (TW.is_empty w);
  (* Cancelling an already-popped event must not disturb a later
     entry reusing its arena slot. *)
  let h = TW.push w ~time:1. 7 () in
  Alcotest.(check (list int)) "popped" [ 7 ] (List.map snd (drain_wheel w));
  TW.cancel h;
  ignore (TW.push w ~time:2. 8 ());
  Alcotest.(check (list int))
    "stale cancel does not kill a reused slot" [ 8 ]
    (List.map snd (drain_wheel w))

(* Events pushed beyond the wheel's horizon park in the overflow heap
   and migrate into the wheel as the clock advances past epoch
   boundaries; global order must survive the trip. *)
let test_overflow_migration () =
  let w = TW.create ~dummy:(-1) ~dummy_arg:() () in
  ignore (TW.push w ~time:(beyond_horizon *. 2.5) 0 ());
  ignore (TW.push w ~time:1. 1 ());
  ignore (TW.push w ~time:(beyond_horizon +. 2.) 2 ());
  ignore (TW.push w ~time:(beyond_horizon -. 1.) 3 ());
  ignore (TW.push w ~time:(beyond_horizon +. 1.) 4 ());
  let _, _, _, overflow_len, _ = TW.stats w in
  Alcotest.(check bool)
    "far-future events sit in overflow" true (overflow_len >= 3);
  Alcotest.(check (list int))
    "order across epoch migrations" [ 1; 3; 4; 2; 0 ]
    (List.map snd (drain_wheel w));
  (* A cancelled overflow entry must not block the epoch jump. *)
  let w = TW.create ~dummy:(-1) ~dummy_arg:() () in
  let h = TW.push w ~time:(beyond_horizon +. 1.) 0 () in
  ignore (TW.push w ~time:(beyond_horizon +. 2.) 1 ());
  TW.cancel h;
  Alcotest.(check (list int))
    "dead overflow minimum is skipped" [ 1 ]
    (List.map snd (drain_wheel w))

(* An event that keeps rescheduling itself at the current instant never
   lets the clock advance; the engine's stall watchdog must convert
   that hang into Livelock Stall. *)
let test_zero_delay_livelock () =
  let engine = Engine.create () in
  let rec respawn () = Engine.post engine ~at:(Engine.now engine) respawn in
  Engine.post engine ~at:0.1 respawn;
  match Engine.run ~until:1. engine with
  | () -> Alcotest.fail "zero-delay loop terminated"
  | exception Engine.Livelock { kind = Engine.Stall; time; _ } ->
    Alcotest.(check (float 1e-9)) "stalled at the loop instant" 0.1 time
  | exception Engine.Livelock { kind = Engine.Budget; _ } ->
    Alcotest.fail "expected Stall, got Budget"

(* Heap-vs-wheel differential: an arbitrary interleaving of pushes,
   cancels, re-arms and pops must pop the identical (time, value)
   sequence from both backends, with equal live counts after every
   operation. The heap has no re-arm, so its model of one is cancel
   plus push. [draw_time ~now] picks each push's time, [now] being the
   last popped time. [before_round] runs before each round creates its
   two queues. Returns the latest time popped. *)
let differential ?(before_round = ignore) ~rng ~rounds ~ops draw_time =
  let latest = ref 0. in
  for _round = 1 to rounds do
    before_round ();
    let h = EH.create () in
    let w = TW.create ~dummy:(-1) ~dummy_arg:() () in
    let h_handles = ref [] and w_handles = ref [] in
    let popped_h = ref [] and popped_w = ref [] in
    let now = ref 0. in
    for i = 0 to ops - 1 do
      (match Rng.int rng 12 with
      | 0 | 1 | 2 | 3 | 4 ->
        let time = draw_time ~now:!now in
        let cancellable = Rng.bool rng in
        if cancellable then begin
          h_handles := EH.push h ~time i :: !h_handles;
          w_handles := TW.push w ~time i () :: !w_handles
        end
        else begin
          EH.push_unit h ~time i;
          TW.push_unit w ~time i ()
        end
      | 5 | 6 -> (
        (match EH.pop h with
        | Some (t, v) -> popped_h := (t, v) :: !popped_h
        | None -> ());
        match TW.pop w with
        | Some (t, v, ()) ->
          popped_w := (t, v) :: !popped_w;
          now := t
        | None -> ())
      | 7 | 8 | 9 -> (
        (* Cancel the same (by construction) pending event in both. *)
        match (!h_handles, !w_handles) with
        | hh :: hrest, wh :: wrest ->
          EH.cancel hh;
          TW.cancel wh;
          h_handles := hrest;
          w_handles := wrest
        | _ -> ())
      | _ ->
        (* Re-arm a handle that may be pending, cancelled or popped. The
           wheel must cancel first, since arming a pending handle
           raises. *)
        let n = List.length !w_handles in
        if n > 0 then begin
          let k = Rng.int rng n in
          let time = draw_time ~now:!now in
          let hh = List.nth !h_handles k and wh = List.nth !w_handles k in
          EH.cancel hh;
          let hh' = EH.push h ~time i in
          TW.cancel wh;
          TW.arm w wh ~time i ();
          h_handles :=
            List.mapi (fun j x -> if j = k then hh' else x) !h_handles
        end);
      if EH.size h <> TW.size w then
        Alcotest.failf "live count: heap %d vs wheel %d" (EH.size h) (TW.size w)
    done;
    popped_h := List.rev_append !popped_h (drain_heap h);
    popped_w := List.rev_append !popped_w (drain_wheel w);
    Alcotest.(check int)
      "same pop count"
      (List.length !popped_h)
      (List.length !popped_w);
    List.iter2
      (fun (th, vh) (tw, vw) ->
        if not (Float.equal th tw && vh = vw) then
          Alcotest.failf "divergence: heap (%h, %d) vs wheel (%h, %d)" th vh tw
            vw;
        latest := Float.max !latest tw)
      !popped_h !popped_w
  done;
  !latest

(* Times from ns to years, duplicates included: same-slot collisions,
   far future, overflow. *)
let random_time rng ~now:_ =
  match Rng.int rng 4 with
  | 0 -> Rng.uniform rng 0. 1e-4
  | 1 -> Rng.uniform rng 0. 10.
  | 2 -> float_of_int (Rng.int rng 4)
  | _ -> Rng.uniform rng 0. (beyond_horizon *. 2.)

let test_differential_random () =
  let rng = Rng.create 20260809 in
  ignore (differential ~rng ~rounds:20 ~ops:1000 (random_time rng))

(* A wheel's chain heads are never initialised, so a wheel created just
   after another was dropped may sit on that one's freed memory, stale
   chain indices included. Only the occupancy bitmap may decide which
   heads are read: the differential must hold on 24 wheels in a row,
   each created after a full major collection freed the one before. *)
let test_recycled_memory () =
  let rng = Rng.create 20261019 in
  ignore
    (differential ~before_round:Gc.full_major ~rng ~rounds:24 ~ops:1000
       (random_time rng))

(* Level boundaries, whatever the geometry: every time sits within a
   tick of a power-of-two tick count, 2^k for k in 0..50, so some lie
   on each level's page edges for any bits-per-level, and some past the
   top page. Half the pushes are measured from the latest pop and half
   aim at the next 2^k-aligned edge ahead of it, so as pops advance the
   cursor it keeps crossing pages at every level while entries wait at
   every level and in overflow. *)
let test_differential_level_edges () =
  let rng = Rng.create 20261017 in
  let offsets = [| -1.; -0.5; 0.; 0.5; 1. |] in
  let draw_time ~now =
    let k = Rng.int rng 51 in
    let span = 2. ** float_of_int k in
    let d = offsets.(Rng.int rng (Array.length offsets)) in
    let now_ticks = Float.floor (now /. TW.tick_seconds) in
    let ticks =
      if Rng.bool rng then now_ticks +. span +. d
      else
        let edge = Float.floor (now_ticks /. span) +. 1. in
        ((edge +. Float.of_int (Rng.int rng 2)) *. span) +. d
    in
    Float.max 0. (ticks *. TW.tick_seconds)
  in
  let latest = differential ~rng ~rounds:30 ~ops:1500 draw_time in
  Alcotest.(check bool)
    "pops crossed the top page into overflow" true (latest > beyond_horizon)

let invalid_time =
  Invalid_argument "Timing_wheel.push: time must be finite and non-negative"

(* Times the wheel cannot file must not reorder dispatch or stall a run:
   a non-finite time is rejected, and a finite one past 2^62 ticks
   (where float-to-int conversion is unspecified) pops in exact order. *)
let test_non_finite_and_huge_times () =
  let w = TW.create ~dummy:(-1) ~dummy_arg:() () in
  let times =
    [ 5.; 1e300; 7.; Float.max_float; 0x1p62 *. TW.tick_seconds; 4.7e12;
      beyond_horizon; 1e20; 0x1p62 *. TW.tick_seconds *. 0.999 ]
  in
  List.iteri (fun i time -> TW.push_unit w ~time i ()) times;
  let sorted = List.sort compare times in
  Alcotest.(check (list (float 0.)))
    "huge finite times pop in time order" sorted
    (List.map fst (drain_wheel w));
  (* The cursor now sits at the saturated tick; pushes still order. *)
  TW.push_unit w ~time:2e300 0 ();
  ignore (TW.push w ~time:1.5e300 1 ());
  TW.push_unit w ~time:1.5e300 2 ();
  Alcotest.(check (list int))
    "order after saturation" [ 1; 2; 0 ]
    (List.map snd (drain_wheel w));
  List.iter
    (fun time ->
      Alcotest.check_raises "push rejects" invalid_time (fun () ->
          ignore (TW.push w ~time 0 ()));
      Alcotest.check_raises "push_unit rejects" invalid_time (fun () ->
          TW.push_unit w ~time 0 ());
      Alcotest.check_raises "arm rejects" invalid_time (fun () ->
          TW.arm w (TW.idle w) ~time 0 ()))
    [ Float.infinity; Float.nan; -1. ];
  Alcotest.(check int) "nothing queued by a rejected push" 0 (TW.size w)

(* Through the engine: a post at infinity is refused, and the events
   already queued still run. *)
let test_engine_rejects_infinity () =
  let engine = Engine.create () in
  let fired = ref [] in
  Engine.post engine ~at:1. (fun () -> fired := Engine.now engine :: !fired);
  Alcotest.check_raises "post at infinity" invalid_time (fun () ->
      Engine.post engine ~at:Float.infinity ignore);
  Alcotest.check_raises "post_in infinitely far" invalid_time (fun () ->
      Engine.post_in engine ~after:Float.infinity ignore);
  Engine.run ~until:10. engine;
  Alcotest.(check (list (float 0.))) "event at t=1 ran" [ 1. ] !fired

(* Creating an engine allocates the wheel's 64 KB of slot heads, left
   uninitialised, and zero-fills only its 4 KB of occupancy bitmaps.
   Many short runs each pay it once. *)
let test_engine_footprint () =
  ignore (Sys.opaque_identity (Engine.create ()));
  let before = Gc.allocated_bytes () in
  let engine = Engine.create () in
  let bytes = Gc.allocated_bytes () -. before in
  ignore (Sys.opaque_identity engine);
  if bytes > 80e3 then
    Alcotest.failf "Engine.create allocated %.0f B, above 80 KB" bytes

let suites =
  [
    ( "sim.scheduler",
      [
        Alcotest.test_case "wheel same-time FIFO tie-break" `Quick
          test_fifo_tie_break;
        Alcotest.test_case "wheel cancel-then-pop accounting" `Quick
          test_cancel_accounting;
        Alcotest.test_case "wheel overflow migration" `Quick
          test_overflow_migration;
        Alcotest.test_case "zero-delay livelock watchdog" `Quick
          test_zero_delay_livelock;
        Alcotest.test_case "randomized heap-vs-wheel differential" `Quick
          test_differential_random;
        Alcotest.test_case "level-boundary heap-vs-wheel differential"
          `Quick test_differential_level_edges;
        Alcotest.test_case "wheel on recycled memory" `Quick
          test_recycled_memory;
        Alcotest.test_case "non-finite and huge times" `Quick
          test_non_finite_and_huge_times;
        Alcotest.test_case "engine rejects an infinite time" `Quick
          test_engine_rejects_infinity;
        Alcotest.test_case "engine creation footprint" `Quick
          test_engine_footprint;
      ] );
  ]
