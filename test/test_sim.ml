open Pcc_sim

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Units *)

let test_conversions () =
  check_float "mbps" 1e6 (Units.mbps 1.);
  check_float "kbps" 1e3 (Units.kbps 1.);
  check_float "gbps" 1e9 (Units.gbps 1.);
  check_float "to_mbps roundtrip" 42. (Units.to_mbps (Units.mbps 42.));
  Alcotest.(check int) "kib" 2048 (Units.kib 2);
  Alcotest.(check int) "mib" (1024 * 1024) (Units.mib 1);
  check_float "ms" 0.005 (Units.ms 5.);
  check_float "us" 5e-6 (Units.us 5.)

let test_transmission_time () =
  (* 1500 bytes at 12 kbps = 1 second. *)
  check_float "tx time" 1. (Units.transmission_time ~size:1500 ~rate:12000.);
  Alcotest.check_raises "zero rate rejected"
    (Invalid_argument "Units.transmission_time: rate <= 0") (fun () ->
      ignore (Units.transmission_time ~size:1500 ~rate:0.))

let test_packets_of_bytes () =
  Alcotest.(check int) "exact" 2 (Units.packets_of_bytes (2 * Units.mss));
  Alcotest.(check int) "round up" 3 (Units.packets_of_bytes ((2 * Units.mss) + 1));
  Alcotest.(check int) "one byte" 1 (Units.packets_of_bytes 1)

let test_bdp () =
  (* 100 Mbps * 30 ms = 375000 bytes. *)
  Alcotest.(check int) "bdp" 375000
    (Units.bdp_bytes ~rate:(Units.mbps 100.) ~rtt:0.03)

(* ------------------------------------------------------------------ *)
(* Event heap *)

let test_heap_order () =
  let h = Event_heap.create () in
  ignore (Event_heap.push h ~time:3. "c");
  ignore (Event_heap.push h ~time:1. "a");
  ignore (Event_heap.push h ~time:2. "b");
  let pop () = match Event_heap.pop h with Some (_, v) -> v | None -> "?" in
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ]
    [ first; second; third ];
  Alcotest.(check bool) "empty" true (Event_heap.is_empty h)

let test_heap_fifo_ties () =
  let h = Event_heap.create () in
  ignore (Event_heap.push h ~time:1. "first");
  ignore (Event_heap.push h ~time:1. "second");
  ignore (Event_heap.push h ~time:1. "third");
  let pop () = match Event_heap.pop h with Some (_, v) -> v | None -> "?" in
  let a = pop () in
  let b = pop () in
  let c = pop () in
  Alcotest.(check (list string)) "insertion order on ties"
    [ "first"; "second"; "third" ]
    [ a; b; c ]

let test_heap_cancel () =
  let h = Event_heap.create () in
  let _a = Event_heap.push h ~time:1. "a" in
  let b = Event_heap.push h ~time:2. "b" in
  ignore (Event_heap.push h ~time:3. "c");
  Event_heap.cancel b;
  Alcotest.(check bool) "cancelled" true (Event_heap.cancelled b);
  let pop () = match Event_heap.pop h with Some (_, v) -> v | None -> "?" in
  let first = pop () in
  let second = pop () in
  Alcotest.(check (list string)) "skips cancelled" [ "a"; "c" ]
    [ first; second ];
  (* Cancelling twice is harmless. *)
  Event_heap.cancel b

let test_heap_cancel_root () =
  let h = Event_heap.create () in
  let a = Event_heap.push h ~time:1. "a" in
  ignore (Event_heap.push h ~time:2. "b");
  Event_heap.cancel a;
  Alcotest.(check (option (float 0.))) "peek skips dead root" (Some 2.)
    (Event_heap.peek_time h);
  Alcotest.(check int) "size purges root" 1 (Event_heap.size h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in nondecreasing time order" ~count:200
    QCheck.(list (float_bound_inclusive 1000.))
    (fun times ->
      let h = Event_heap.create () in
      List.iter (fun t -> ignore (Event_heap.push h ~time:t ())) times;
      let rec drain acc =
        match Event_heap.pop h with
        | Some (t, ()) -> drain (t :: acc)
        | None -> List.rev acc
      in
      let popped = drain [] in
      List.length popped = List.length times
      && popped = List.sort compare times)

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_order () =
  let engine = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule engine ~at:2. (fun () -> log := 2 :: !log));
  ignore (Engine.schedule engine ~at:1. (fun () -> log := 1 :: !log));
  ignore (Engine.schedule engine ~at:3. (fun () -> log := 3 :: !log));
  Engine.run engine;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !log);
  check_float "clock at last event" 3. (Engine.now engine)

let test_engine_until () =
  let engine = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.schedule engine ~at:1. (fun () -> incr fired));
  ignore (Engine.schedule engine ~at:5. (fun () -> incr fired));
  Engine.run ~until:2. engine;
  Alcotest.(check int) "only first fired" 1 !fired;
  check_float "clock left at limit" 2. (Engine.now engine);
  Engine.run engine;
  Alcotest.(check int) "second fires later" 2 !fired

let test_engine_cancel () =
  let engine = Engine.create () in
  let fired = ref false in
  let timer = Engine.schedule engine ~at:1. (fun () -> fired := true) in
  Engine.cancel timer;
  Engine.run engine;
  Alcotest.(check bool) "cancelled timer silent" false !fired

let test_engine_past_raises () =
  let engine = Engine.create () in
  ignore (Engine.schedule engine ~at:5. (fun () -> ()));
  Engine.run engine;
  Alcotest.(check bool) "raises on past schedule" true
    (try
       ignore (Engine.schedule engine ~at:1. (fun () -> ()));
       false
     with Invalid_argument _ -> true)

let test_engine_nested_scheduling () =
  let engine = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule engine ~at:1. (fun () ->
         log := "outer" :: !log;
         ignore
           (Engine.schedule_in engine ~after:1. (fun () ->
                log := "inner" :: !log))));
  Engine.run engine;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  check_float "clock" 2. (Engine.now engine)

let test_engine_same_time_fifo () =
  let engine = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule engine ~at:1. (fun () -> log := i :: !log))
  done;
  Engine.run engine;
  Alcotest.(check (list int)) "same-instant FIFO" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_engine_negative_delay_clamped () =
  let engine = Engine.create () in
  let fired = ref false in
  ignore (Engine.schedule_in engine ~after:(-5.) (fun () -> fired := true));
  Engine.run engine;
  Alcotest.(check bool) "clamped to now" true !fired;
  check_float "clock unchanged" 0. (Engine.now engine)

(* ------------------------------------------------------------------ *)
(* Engine hardening: exception-safe dispatch and the livelock watchdog *)

let test_engine_event_error_context () =
  let engine = Engine.create () in
  ignore (Engine.schedule engine ~at:1.5 (fun () -> failwith "boom"));
  ignore (Engine.schedule engine ~at:2. (fun () -> ()));
  (match Engine.run engine with
  | () -> Alcotest.fail "raising callback must surface"
  | exception Engine.Event_error { time; exn } ->
    check_float "scheduled time attached" 1.5 time;
    Alcotest.(check bool) "original exn preserved" true
      (match exn with Failure m -> m = "boom" | _ -> false));
  (* The failing event was consumed and the engine is still steppable. *)
  check_float "clock advanced to the failed event" 1.5 (Engine.now engine);
  Alcotest.(check bool) "next event still runs" true (Engine.step engine);
  check_float "clock reaches the survivor" 2. (Engine.now engine)

let test_engine_livelock_watchdog () =
  (* A zero-delay self-rescheduling event must trip the watchdog instead
     of hanging the run forever. *)
  let engine = Engine.create ~stall_budget:500 () in
  ignore
    (Engine.schedule engine ~at:1. (fun () ->
         let rec respawn () =
           ignore (Engine.schedule_in engine ~after:0. respawn)
         in
         respawn ()));
  (match Engine.run engine with
  | () -> Alcotest.fail "expected a livelock"
  | exception Engine.Livelock { time; events; kind = Engine.Stall } ->
    check_float "offending instant reported" 1. time;
    Alcotest.(check bool) "budget was spent" true (events > 500);
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
      go 0
    in
    let msg =
      Printexc.to_string (Engine.Livelock { time; events; kind = Engine.Stall })
    in
    Alcotest.(check bool) "time is in the message" true (contains msg "t=1.0")
  | exception Engine.Livelock _ -> Alcotest.fail "wrong livelock kind");
  (* The watchdog fires mid-run but the engine survives: advancing the
     clock resets the stall counter. *)
  ignore (Engine.schedule_in engine ~after:1. (fun () -> ()));
  Alcotest.(check bool) "still steppable" true (Engine.step engine)

let test_engine_event_budget () =
  let engine = Engine.create () in
  let rec chain n =
    ignore
      (Engine.schedule_in engine ~after:0.001 (fun () -> chain (n + 1)))
  in
  chain 0;
  match Engine.run ~max_events:100 engine with
  | () -> Alcotest.fail "expected budget exhaustion"
  | exception Engine.Livelock { events; kind = Engine.Budget; _ } ->
    Alcotest.(check int) "stopped at the budget" 100 events
  | exception Engine.Livelock _ -> Alcotest.fail "wrong livelock kind"

let test_engine_watchdog_spares_bursts () =
  (* Many simultaneous events are normal (incast); only unbounded
     same-instant loops should trip. *)
  let engine = Engine.create ~stall_budget:1000 () in
  let fired = ref 0 in
  for _ = 1 to 900 do
    ignore (Engine.schedule engine ~at:1. (fun () -> incr fired))
  done;
  Engine.run engine;
  Alcotest.(check int) "all burst events ran" 900 !fired

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 1 and b = Rng.create 1 in
  for _ = 1 to 100 do
    Alcotest.(check (float 0.)) "same stream" (Rng.float a) (Rng.float b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check int) "different seeds diverge" 0 !same

let test_rng_split_independent () =
  let parent = Rng.create 7 in
  let child = Rng.split parent in
  let xs = List.init 32 (fun _ -> Rng.bits64 parent) in
  let ys = List.init 32 (fun _ -> Rng.bits64 child) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_copy_replays () =
  let a = Rng.create 3 in
  ignore (Rng.float a);
  let b = Rng.copy a in
  Alcotest.(check (float 0.)) "copy replays" (Rng.float a) (Rng.float b)

(* The first eight raw outputs of two seeds, as the splitmix64 stream
   has always produced them: a change of the state's representation
   must not move a single bit. *)
let test_rng_golden_stream () =
  let golden =
    [
      ( 1,
        [
          0xBFEF8030DDC2D772L; 0x5F552CE482F2AA47L; 0x70335FC3DAF3D8A7L;
          0xF440FE3B62C79D2CL; 0x33BA2F29E7C168BBL; 0x98843F48A94B7866L;
          0x74AD4C24D41A25F8L; 0x2F9A1F13648EAB6EL;
        ] );
      ( 42,
        [
          0x989B3F130A063869L; 0x290DB4BF2570DED7L; 0x2A990BE63A01B2D5L;
          0x0C4B6B24EF01890EL; 0xFB16A06E52EC10A7L; 0x3C30FC5FD50692C3L;
          0x4782C4B4C4FDF7C9L; 0x272404A0A3926552L;
        ] );
    ]
  in
  List.iter
    (fun (seed, want) ->
      let rng = Rng.create seed in
      let got = List.init 8 (fun _ -> Rng.bits64 rng) in
      Alcotest.(check (list int64)) (Printf.sprintf "seed %d" seed) want got)
    golden

(* Lossy links draw once per packet: those draws must not allocate. *)
let test_rng_draws_allocate_nothing () =
  let rng = Rng.create 9 in
  let hits = ref 0 in
  let before = Gc.minor_words () in
  for i = 1 to 10_000 do
    if Rng.bernoulli rng 0.3 then incr hits;
    hits := !hits + Rng.int rng (1 + (i land 7))
  done;
  let words = Gc.minor_words () -. before in
  if words >= 100. then
    Alcotest.failf "10,000 draws allocated %.0f minor words (>= 100)" words;
  ignore (Sys.opaque_identity !hits)

let test_rng_bernoulli_extremes () =
  let rng = Rng.create 5 in
  for _ = 1 to 50 do
    Alcotest.(check bool) "p=0" false (Rng.bernoulli rng 0.);
    Alcotest.(check bool) "p=1" true (Rng.bernoulli rng 1.)
  done

let test_rng_bernoulli_rate () =
  let rng = Rng.create 11 in
  let n = 20000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "close to 0.3" true (Float.abs (rate -. 0.3) < 0.02)

let test_rng_exponential_mean () =
  let rng = Rng.create 13 in
  let n = 20000 in
  let total = ref 0. in
  for _ = 1 to n do
    total := !total +. Rng.exponential rng 2.
  done;
  let mean = !total /. float_of_int n in
  Alcotest.(check bool) "mean ~2" true (Float.abs (mean -. 2.) < 0.1)

let prop_rng_float_unit =
  QCheck.Test.make ~name:"Rng.float in [0,1)" ~count:500 QCheck.small_int
    (fun seed ->
      let rng = Rng.create seed in
      let v = Rng.float rng in
      v >= 0. && v < 1.)

let prop_rng_int_bound =
  QCheck.Test.make ~name:"Rng.int in [0,n)" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let v = Rng.int rng n in
      v >= 0 && v < n)

let prop_rng_log_uniform =
  QCheck.Test.make ~name:"log_uniform within bounds" ~count:300
    QCheck.(pair small_int (pair (float_range 0.001 10.) (float_range 0.1 100.)))
    (fun (seed, (lo, extra)) ->
      let hi = lo +. extra in
      let rng = Rng.create seed in
      let v = Rng.log_uniform rng lo hi in
      v >= lo && v <= hi *. (1. +. 1e-9))

let prop_rng_shuffle_multiset =
  QCheck.Test.make ~name:"shuffle preserves elements" ~count:200
    QCheck.(pair small_int (list small_int))
    (fun (seed, l) ->
      let rng = Rng.create seed in
      let a = Array.of_list l in
      Rng.shuffle rng a;
      List.sort compare (Array.to_list a) = List.sort compare l)

(* ------------------------------------------------------------------ *)
(* Argument-carrying posts and re-armable timers *)

(* Every way of queueing an event draws from one sequence counter, so
   events at one instant dispatch in push order whichever call queued
   them. *)
let test_engine_post_apply_order () =
  let engine = Engine.create () in
  let log = ref [] in
  let note i = log := i :: !log in
  let timer = Engine.timer engine in
  Engine.post_apply_in engine ~after:1. note 0;
  Engine.post engine ~at:1. (fun () -> note 1);
  ignore (Engine.schedule engine ~at:1. (fun () -> note 2));
  Engine.post_apply_in engine ~after:1. note 3;
  Engine.arm_in engine timer ~after:1. (fun () -> note 4);
  ignore (Engine.schedule_in engine ~after:1. (fun () -> note 5));
  Engine.post_in engine ~after:1. (fun () -> note 6);
  Engine.post_apply_in engine ~after:1. note 7;
  Engine.post_apply_in engine ~after:0.5 note 8;
  Alcotest.(check int) "all pending" 9 (Engine.pending engine);
  Engine.run engine;
  Alcotest.(check (list int))
    "push order within the tie" [ 8; 0; 1; 2; 3; 4; 5; 6; 7 ] (List.rev !log)

type arg_record = { label : string; weight : float; count : int }

(* The argument reaches its action intact whatever its representation.
   A float goes first, into a fresh queue: an argument column seeded
   from it would be a flat float array and could not then hold the
   record. Each dispatch path is used: [step], [run ~max_events],
   [run ~until] and [run]. *)
let test_engine_post_apply_args () =
  let engine = Engine.create () in
  let got_float = ref 0. and got_int = ref 0 and got_record = ref None in
  Engine.post_apply_in engine ~after:1. (fun x -> got_float := x) 3.25;
  Engine.post_apply_in engine ~after:2. (fun n -> got_int := n) (-42);
  let r = { label = "flow"; weight = 0.5; count = 7 } in
  Engine.post_apply_in engine ~after:3. (fun r -> got_record := Some r) r;
  Engine.post_apply_in engine ~after:4. (fun x -> got_float := !got_float +. x)
    1e-300;
  Alcotest.(check bool) "step ran one" true (Engine.step engine);
  check_float "float arrives" 3.25 !got_float;
  Engine.run ~max_events:1 ~until:2. engine;
  Alcotest.(check int) "int arrives" (-42) !got_int;
  Engine.run ~until:3. engine;
  (match !got_record with
  | Some r' ->
    Alcotest.(check bool) "same record" true (r' == r);
    Alcotest.(check string) "label" "flow" r'.label;
    check_float "weight" 0.5 r'.weight;
    Alcotest.(check int) "count" 7 r'.count
  | None -> Alcotest.fail "record never arrived");
  Engine.run engine;
  Alcotest.(check (float 0.)) "float added" (3.25 +. 1e-300) !got_float;
  Alcotest.(check int) "drained" 0 (Engine.pending engine)

(* The queue holds a posted argument only until dispatch. *)
let test_engine_post_apply_releases_arg () =
  let engine = Engine.create () in
  let weak = Weak.create 1 in
  let seen = ref 0 in
  let post () =
    let p = Pcc_net.Packet.data ~flow:1 ~seq:0 ~size:1500 ~now:0. ~retx:false in
    Weak.set weak 0 (Some p);
    Engine.post_apply_in engine ~after:1.
      (fun (p : Pcc_net.Packet.t) -> seen := !seen + p.Pcc_net.Packet.size)
      p
  in
  post ();
  Gc.full_major ();
  Alcotest.(check bool) "queued packet kept alive" true (Weak.check weak 0);
  Engine.run engine;
  Alcotest.(check int) "delivered" 1500 !seen;
  Gc.full_major ();
  Alcotest.(check bool) "dispatched packet released" false (Weak.check weak 0);
  (* The engine, and with it the wheel, was reachable throughout. *)
  Alcotest.(check int) "engine still usable" 0 (Engine.pending engine)

(* A cancelled timer's entry stays buried in the wheel; re-arming the
   same timer must fire once, at the new time only, with [pending]
   exact at every step. *)
let test_engine_timer_rearm () =
  let engine = Engine.create () in
  let timer = Engine.timer engine in
  let fired = ref [] in
  let f () = fired := Engine.now engine :: !fired in
  let pending n what = Alcotest.(check int) what n (Engine.pending engine) in
  Alcotest.(check bool) "idle timer not pending" false (Engine.is_pending timer);
  pending 0 "idle timer queues nothing";
  Engine.arm_in engine timer ~after:2. f;
  Alcotest.(check bool) "armed" true (Engine.is_pending timer);
  pending 1 "armed";
  Engine.cancel timer;
  pending 0 "cancelled";
  Engine.arm_in engine timer ~after:1. f;
  pending 1 "re-armed earlier";
  Engine.cancel timer;
  Engine.arm_in engine timer ~after:3. f;
  pending 1 "re-armed later";
  Engine.post engine ~at:1.5 (fun () -> pending 1 "mid-run, before 3");
  Engine.run ~until:2.5 engine;
  Alcotest.(check (list (float 0.))) "nothing at the old times" [] !fired;
  pending 1 "old entries surfaced dead";
  Engine.run engine;
  Alcotest.(check (list (float 0.))) "fired once, at the new time" [ 3. ]
    !fired;
  Alcotest.(check bool) "fired timer idle" false (Engine.is_pending timer);
  pending 0 "drained";
  (* The timer is idle by the time its callback runs, so it can re-arm
     itself from there. *)
  let n = ref 0 in
  let rec tick () =
    incr n;
    if !n < 3 then Engine.arm_in engine timer ~after:1. tick
  in
  Engine.arm_in engine timer ~after:1. tick;
  Engine.run engine;
  Alcotest.(check int) "self re-arm" 3 !n;
  check_float "one second apart" 6. (Engine.now engine);
  pending 0 "drained again"

let test_engine_timer_misuse () =
  let engine = Engine.create () in
  let timer = Engine.timer engine in
  Engine.arm_in engine timer ~after:1. ignore;
  (match Engine.arm_in engine timer ~after:2. ignore with
  | () -> Alcotest.fail "arming a pending timer must raise"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "still one event" 1 (Engine.pending engine);
  let other = Engine.create () in
  (match Engine.arm_in other (Engine.timer engine) ~after:1. ignore with
  | () -> Alcotest.fail "arming another engine's timer must raise"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "other engine untouched" 0 (Engine.pending other)

(* The process-wide event tally sums engines running on several
   domains at once. *)
let test_total_executed_across_domains () =
  let run () =
    let engine = Engine.create () in
    for i = 1 to 1000 do
      Engine.post engine ~at:(float_of_int i) ignore
    done;
    Engine.run engine;
    Engine.executed engine
  in
  let before = Engine.total_executed () in
  let workers = List.init 2 (fun _ -> Domain.spawn run) in
  let per = List.map Domain.join workers in
  Alcotest.(check (list int)) "each engine ran its events" [ 1000; 1000 ] per;
  Alcotest.(check int) "process-wide counter covers both domains" 2000
    (Engine.total_executed () - before)

let q = QCheck_alcotest.to_alcotest

let suites =
  [
    ( "sim.units",
      [
        Alcotest.test_case "conversions" `Quick test_conversions;
        Alcotest.test_case "transmission time" `Quick test_transmission_time;
        Alcotest.test_case "packets of bytes" `Quick test_packets_of_bytes;
        Alcotest.test_case "bdp" `Quick test_bdp;
      ] );
    ( "sim.event_heap",
      [
        Alcotest.test_case "pop order" `Quick test_heap_order;
        Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
        Alcotest.test_case "cancellation" `Quick test_heap_cancel;
        Alcotest.test_case "cancel root" `Quick test_heap_cancel_root;
        q prop_heap_sorts;
      ] );
    ( "sim.engine",
      [
        Alcotest.test_case "event order" `Quick test_engine_order;
        Alcotest.test_case "run until" `Quick test_engine_until;
        Alcotest.test_case "cancel" `Quick test_engine_cancel;
        Alcotest.test_case "past schedule raises" `Quick test_engine_past_raises;
        Alcotest.test_case "nested scheduling" `Quick test_engine_nested_scheduling;
        Alcotest.test_case "same-time fifo" `Quick test_engine_same_time_fifo;
        Alcotest.test_case "negative delay clamped" `Quick
          test_engine_negative_delay_clamped;
        Alcotest.test_case "event error carries its time" `Quick
          test_engine_event_error_context;
        Alcotest.test_case "livelock watchdog" `Quick
          test_engine_livelock_watchdog;
        Alcotest.test_case "event budget" `Quick test_engine_event_budget;
        Alcotest.test_case "watchdog spares bursts" `Quick
          test_engine_watchdog_spares_bursts;
        Alcotest.test_case "total_executed" `Quick
          test_total_executed_across_domains;
        Alcotest.test_case "post_apply_in order" `Quick
          test_engine_post_apply_order;
        Alcotest.test_case "post_apply_in arguments" `Quick
          test_engine_post_apply_args;
        Alcotest.test_case "post_apply_in releases its argument" `Quick
          test_engine_post_apply_releases_arg;
        Alcotest.test_case "timer re-arm" `Quick test_engine_timer_rearm;
        Alcotest.test_case "timer misuse" `Quick test_engine_timer_misuse;
      ] );
    ( "sim.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
        Alcotest.test_case "split independent" `Quick test_rng_split_independent;
        Alcotest.test_case "copy replays" `Quick test_rng_copy_replays;
        Alcotest.test_case "golden stream" `Quick test_rng_golden_stream;
        Alcotest.test_case "draws allocate nothing" `Quick
          test_rng_draws_allocate_nothing;
        Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
        Alcotest.test_case "bernoulli rate" `Quick test_rng_bernoulli_rate;
        Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
        q prop_rng_float_unit;
        q prop_rng_int_bound;
        q prop_rng_log_uniform;
        q prop_rng_shuffle_multiset;
      ] );
  ]
