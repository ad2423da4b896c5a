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
    | Some (t, v) ->
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
  let w = TW.create ~dummy:(-1) () in
  ignore (TW.push w ~time:1. 0);
  TW.push_unit w ~time:1. 1;
  ignore (TW.push w ~time:0.5 2);
  TW.push_unit w ~time:1. 3;
  ignore (TW.push w ~time:1. 4);
  Alcotest.(check (list int))
    "insertion order within a tie" [ 2; 0; 1; 3; 4 ]
    (List.map snd (drain_wheel w));
  (* Sub-tick spacing: distinct times less than a tick apart must still
     come out in time order, not slot order. *)
  let w = TW.create ~dummy:(-1) () in
  ignore (TW.push w ~time:(1. +. 0.9e-6) 0);
  ignore (TW.push w ~time:(1. +. 0.1e-6) 1);
  ignore (TW.push w ~time:1. 2);
  Alcotest.(check (list int))
    "sub-tick times keep exact order" [ 2; 1; 0 ]
    (List.map snd (drain_wheel w))

let test_cancel_accounting () =
  let w = TW.create ~dummy:(-1) () in
  let handles = Array.init 100 (fun i -> TW.push w ~time:(float_of_int i) i) in
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
  let h = TW.push w ~time:1. 7 in
  Alcotest.(check (list int)) "popped" [ 7 ] (List.map snd (drain_wheel w));
  TW.cancel h;
  ignore (TW.push w ~time:2. 8);
  Alcotest.(check (list int))
    "stale cancel does not kill a reused slot" [ 8 ]
    (List.map snd (drain_wheel w))

(* Events pushed beyond the wheel's horizon park in the overflow heap
   and migrate into the wheel as the clock advances past epoch
   boundaries; global order must survive the trip. *)
let test_overflow_migration () =
  let w = TW.create ~dummy:(-1) () in
  ignore (TW.push w ~time:(beyond_horizon *. 2.5) 0);
  ignore (TW.push w ~time:1. 1);
  ignore (TW.push w ~time:(beyond_horizon +. 2.) 2);
  ignore (TW.push w ~time:(beyond_horizon -. 1.) 3);
  ignore (TW.push w ~time:(beyond_horizon +. 1.) 4);
  let _, _, _, overflow_len, _ = TW.stats w in
  Alcotest.(check bool)
    "far-future events sit in overflow" true (overflow_len >= 3);
  Alcotest.(check (list int))
    "order across epoch migrations" [ 1; 3; 4; 2; 0 ]
    (List.map snd (drain_wheel w));
  (* A cancelled overflow entry must not block the epoch jump. *)
  let w = TW.create ~dummy:(-1) () in
  let h = TW.push w ~time:(beyond_horizon +. 1.) 0 in
  ignore (TW.push w ~time:(beyond_horizon +. 2.) 1);
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

(* Randomized differential: an arbitrary interleaving of pushes (times
   from ns to years, duplicates included), cancels and pops must pop
   the identical (time, value) sequence from both backends. *)
let test_differential_random () =
  let rng = Rng.create 20260809 in
  for _round = 1 to 20 do
    let h = EH.create () in
    let w = TW.create ~dummy:(-1) () in
    let h_handles = ref [] and w_handles = ref [] in
    let popped_h = ref [] and popped_w = ref [] in
    for i = 0 to 999 do
      match Rng.int rng 10 with
      | 0 | 1 | 2 | 3 | 4 ->
        (* Mixed magnitudes: same-slot collisions, far future, overflow. *)
        let time =
          match Rng.int rng 4 with
          | 0 -> Rng.uniform rng 0. 1e-4
          | 1 -> Rng.uniform rng 0. 10.
          | 2 -> float_of_int (Rng.int rng 4)
          | _ -> Rng.uniform rng 0. (beyond_horizon *. 2.)
        in
        let cancellable = Rng.bool rng in
        if cancellable then begin
          h_handles := EH.push h ~time i :: !h_handles;
          w_handles := TW.push w ~time i :: !w_handles
        end
        else begin
          EH.push_unit h ~time i;
          TW.push_unit w ~time i
        end
      | 5 | 6 -> (
        (match EH.pop h with
        | Some (t, v) -> popped_h := (t, v) :: !popped_h
        | None -> ());
        match TW.pop w with
        | Some (t, v) -> popped_w := (t, v) :: !popped_w
        | None -> ())
      | _ -> (
        (* Cancel the same (by construction) pending event in both. *)
        match (!h_handles, !w_handles) with
        | hh :: hrest, wh :: wrest ->
          EH.cancel hh;
          TW.cancel wh;
          h_handles := hrest;
          w_handles := wrest
        | _ -> ())
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
            vw)
      !popped_h !popped_w
  done

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
      ] );
  ]
