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

let test_engine_collect_policy () =
  let engine = Engine.create ~on_error:Collect () in
  let survived = ref false in
  ignore (Engine.schedule engine ~at:1. (fun () -> failwith "first"));
  ignore (Engine.schedule engine ~at:2. (fun () -> failwith "second"));
  ignore (Engine.schedule engine ~at:3. (fun () -> survived := true));
  Engine.run engine;
  Alcotest.(check bool) "later events still ran" true !survived;
  let errs = Engine.errors engine in
  Alcotest.(check int) "both errors collected" 2 (List.length errs);
  check_float "oldest first" 1. (fst (List.hd errs));
  Engine.clear_errors engine;
  Alcotest.(check int) "cleared" 0 (List.length (Engine.errors engine))

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
(* Pool: exactly-once release and domain ownership *)

let test_pool_double_release () =
  let p = Pool.create ~dummy:0 () in
  Pool.set_fire p (fun _ -> ());
  let ev = Pool.event p 7 in
  ev ();
  Alcotest.check_raises "second fire raises" Pool.Double_release ev

let test_pool_cross_domain () =
  let p = Pool.create ~dummy:0 () in
  Pool.set_fire p (fun _ -> ());
  let ev = Pool.event p 7 in
  let raised =
    Domain.join
      (Domain.spawn (fun () ->
           try
             ev ();
             false
           with Pool.Cross_domain_release -> true))
  in
  Alcotest.(check bool) "foreign fire rejected" true raised;
  (* The slot is still checked out — the rejected fire released
     nothing — and the owner can still run it. *)
  Alcotest.(check int) "slot still live" 1 (Pool.in_use p);
  ev ();
  Alcotest.(check int) "owner fire drains" 0 (Pool.in_use p)

(* Pooled events posted into an engine all come back to the free list,
   and capacity tracks the in-flight peak rather than the total. Runs
   on a worker domain too: a pool created where its engine runs is
   owned there. *)
let test_pool_no_leak () =
  let run () =
    let engine = Engine.create () in
    let pool = Pool.create ~dummy:(-1) () in
    let seen = ref 0 in
    Pool.set_fire pool (fun _ -> incr seen);
    let n = 500 in
    for i = 0 to n - 1 do
      Engine.post engine ~at:(0.001 *. float_of_int i) (fun () ->
          Engine.post_in engine ~after:0.002 (Pool.event pool i))
    done;
    Engine.run engine;
    (!seen, Pool.in_use pool, Pool.capacity pool)
  in
  let check where (seen, in_use, cap) =
    Alcotest.(check int) (where ^ ": every event fired") 500 seen;
    Alcotest.(check int) (where ^ ": no slot leaked") 0 in_use;
    Alcotest.(check bool) (where ^ ": capacity bounded by in-flight peak")
      true (cap <= 16)
  in
  check "main domain" (run ());
  check "worker domain" (Domain.join (Domain.spawn run))

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
        Alcotest.test_case "collect policy" `Quick test_engine_collect_policy;
        Alcotest.test_case "livelock watchdog" `Quick
          test_engine_livelock_watchdog;
        Alcotest.test_case "event budget" `Quick test_engine_event_budget;
        Alcotest.test_case "watchdog spares bursts" `Quick
          test_engine_watchdog_spares_bursts;
        Alcotest.test_case "total_executed" `Quick
          test_total_executed_across_domains;
      ] );
    ( "sim.pool",
      [
        Alcotest.test_case "double release" `Quick test_pool_double_release;
        Alcotest.test_case "cross-domain release" `Quick test_pool_cross_domain;
        Alcotest.test_case "no leak" `Quick test_pool_no_leak;
      ] );
    ( "sim.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
        Alcotest.test_case "split independent" `Quick test_rng_split_independent;
        Alcotest.test_case "copy replays" `Quick test_rng_copy_replays;
        Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
        Alcotest.test_case "bernoulli rate" `Quick test_rng_bernoulli_rate;
        Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
        q prop_rng_float_unit;
        q prop_rng_int_bound;
        q prop_rng_log_uniform;
        q prop_rng_shuffle_multiset;
      ] );
  ]
