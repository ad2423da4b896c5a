open Pcc_net

let data ?(flow = 1) ?(size = 1500) ~now seq =
  Packet.data ~flow ~seq ~size ~now ~retx:false

(* ------------------------------------------------------------------ *)
(* DropTail *)

let test_droptail_fifo () =
  let q = Queue_disc.droptail_bytes ~capacity:15000 () in
  for seq = 0 to 4 do
    Alcotest.(check bool) "accepted" true (q.Queue_disc.enqueue ~now:0. (data ~now:0. seq))
  done;
  Alcotest.(check int) "bytes" 7500 (q.Queue_disc.len_bytes ());
  Alcotest.(check int) "pkts" 5 (q.Queue_disc.len_pkts ());
  let out = List.init 5 (fun _ ->
      match q.Queue_disc.dequeue ~now:1. with
      | Some p -> p.Packet.seq
      | None -> -1)
  in
  Alcotest.(check (list int)) "fifo order" [ 0; 1; 2; 3; 4 ] out

let test_droptail_capacity () =
  let q = Queue_disc.droptail_bytes ~capacity:3000 () in
  Alcotest.(check bool) "fits" true (q.Queue_disc.enqueue ~now:0. (data ~now:0. 0));
  Alcotest.(check bool) "fits" true (q.Queue_disc.enqueue ~now:0. (data ~now:0. 1));
  Alcotest.(check bool) "full" false (q.Queue_disc.enqueue ~now:0. (data ~now:0. 2));
  Alcotest.(check int) "drop counted" 1 (q.Queue_disc.drops ())

let test_droptail_min_one_packet () =
  (* A sub-MSS capacity is clamped so one packet can always be buffered. *)
  let q = Queue_disc.droptail_bytes ~capacity:10 () in
  Alcotest.(check bool) "one packet fits" true
    (q.Queue_disc.enqueue ~now:0. (data ~now:0. 0))

let test_droptail_pkts () =
  let q = Queue_disc.droptail_pkts ~capacity:2 () in
  Alcotest.(check bool) "1" true (q.Queue_disc.enqueue ~now:0. (data ~now:0. 0));
  Alcotest.(check bool) "2" true (q.Queue_disc.enqueue ~now:0. (data ~now:0. 1));
  Alcotest.(check bool) "3 dropped" false (q.Queue_disc.enqueue ~now:0. (data ~now:0. 2))

let test_infinite_never_drops () =
  let q = Queue_disc.infinite () in
  for seq = 0 to 9999 do
    Alcotest.(check bool) "accepted" true (q.Queue_disc.enqueue ~now:0. (data ~now:0. seq))
  done;
  Alcotest.(check int) "no drops" 0 (q.Queue_disc.drops ())

(* ------------------------------------------------------------------ *)
(* CoDel *)

let test_codel_low_delay_passthrough () =
  let q = Queue_disc.codel ~capacity:1_000_000 () in
  (* Sojourn under the 5 ms target: CoDel never drops. *)
  for seq = 0 to 99 do
    ignore (q.Queue_disc.enqueue ~now:(float_of_int seq *. 0.001) (data ~now:0. seq))
  done;
  let delivered = ref 0 in
  for i = 0 to 99 do
    match q.Queue_disc.dequeue ~now:(0.002 +. (float_of_int i *. 0.001)) with
    | Some _ -> incr delivered
    | None -> ()
  done;
  Alcotest.(check int) "all pass" 100 !delivered;
  Alcotest.(check int) "no drops" 0 (q.Queue_disc.drops ())

let test_codel_drops_on_persistent_delay () =
  let q = Queue_disc.codel ~capacity:10_000_000 () in
  (* Fill a standing queue, then dequeue far later so sojourn stays far
     above target for well over an interval. *)
  for seq = 0 to 499 do
    ignore (q.Queue_disc.enqueue ~now:0. (data ~now:0. seq))
  done;
  let delivered = ref 0 in
  let now = ref 0.5 in
  for _ = 0 to 499 do
    (match q.Queue_disc.dequeue ~now:!now with
    | Some _ -> incr delivered
    | None -> ());
    now := !now +. 0.002
  done;
  Alcotest.(check bool) "some dropped" true (q.Queue_disc.drops () > 0);
  Alcotest.(check bool) "not everything dropped" true (!delivered > 300)

let test_codel_recovers_when_queue_drains () =
  let q = Queue_disc.codel ~capacity:1_000_000 () in
  for seq = 0 to 99 do
    ignore (q.Queue_disc.enqueue ~now:0. (data ~now:0. seq))
  done;
  let now = ref 0.3 in
  let continue = ref true in
  while !continue do
    match q.Queue_disc.dequeue ~now:!now with
    | Some _ -> now := !now +. 0.001
    | None -> continue := false
  done;
  let drops_before = q.Queue_disc.drops () in
  (* Fresh traffic with low sojourn is not dropped. *)
  ignore (q.Queue_disc.enqueue ~now:!now (data ~now:!now 1000));
  (match q.Queue_disc.dequeue ~now:(!now +. 0.001) with
  | Some p -> Alcotest.(check int) "fresh packet delivered" 1000 p.Packet.seq
  | None -> Alcotest.fail "fresh packet dropped");
  Alcotest.(check int) "no new drops" drops_before (q.Queue_disc.drops ())

(* The same standing queue, once on a fresh FIFO and once on one whose
   earlier burst left chunks to reuse, refilled while it drains so the
   head and the tail both move through reused chunks: CoDel reads the
   same sojourn times from both, so it drops the same packets. *)
let test_codel_drops_on_reused_chunks () =
  let run q =
    for seq = 0 to 499 do
      ignore (q.Queue_disc.enqueue ~now:1.0 (data ~now:1.0 seq))
    done;
    let now = ref 1.5 and out = ref [] and step = ref 0 in
    let continue = ref true in
    while !continue do
      if !step < 300 then
        ignore (q.Queue_disc.enqueue ~now:!now (data ~now:!now (1000 + !step)));
      incr step;
      match q.Queue_disc.dequeue ~now:!now with
      | Some p ->
        out := p.Packet.seq :: !out;
        now := !now +. 0.002
      | None -> continue := false
    done;
    List.rev !out
  in
  let fresh = Queue_disc.codel ~capacity:10_000_000 () in
  let want = run fresh in
  let reused = Queue_disc.codel ~capacity:10_000_000 () in
  (* A burst well under the target sojourn: no drop, no CoDel state. *)
  for seq = 0 to 199 do
    ignore (reused.Queue_disc.enqueue ~now:0. (data ~now:0. (5000 + seq)))
  done;
  for _ = 0 to 199 do
    ignore (reused.Queue_disc.dequeue ~now:0.001)
  done;
  let got = run reused in
  Alcotest.(check bool) "dropped some" true (fresh.Queue_disc.drops () > 0);
  Alcotest.(check (list int)) "same deliveries" want got;
  Alcotest.(check int) "same drops" (fresh.Queue_disc.drops ())
    (reused.Queue_disc.drops ());
  Alcotest.(check int) "every packet accounted" 800
    (List.length got + reused.Queue_disc.drops ())

(* ------------------------------------------------------------------ *)
(* RED *)

let test_red_accepts_when_empty () =
  let q = Queue_disc.red ~capacity:100_000 () in
  Alcotest.(check bool) "accepted" true (q.Queue_disc.enqueue ~now:0. (data ~now:0. 0))

let test_red_drops_under_sustained_load () =
  let q = Queue_disc.red ~capacity:150_000 () in
  (* Keep the average queue between the thresholds long enough for the
     probabilistic dropping to engage. *)
  let accepted = ref 0 in
  for seq = 0 to 999 do
    if q.Queue_disc.enqueue ~now:0. (data ~now:0. seq) then incr accepted;
    if seq mod 3 = 0 then ignore (q.Queue_disc.dequeue ~now:0.)
  done;
  Alcotest.(check bool) "red dropped some" true (q.Queue_disc.drops () > 0);
  Alcotest.(check bool) "red passed a fair share" true (!accepted > 300)

(* ------------------------------------------------------------------ *)
(* FQ / DRR *)

let test_fq_round_robin_fair () =
  let q =
    Queue_disc.fq
      ~per_flow:(fun () -> Queue_disc.droptail_bytes ~capacity:1_000_000 ())
      ()
  in
  (* Flow 1 floods, flow 2 offers a little; service alternates. *)
  for seq = 0 to 99 do
    ignore (q.Queue_disc.enqueue ~now:0. (data ~flow:1 ~now:0. seq))
  done;
  for seq = 0 to 9 do
    ignore (q.Queue_disc.enqueue ~now:0. (data ~flow:2 ~now:0. (1000 + seq)))
  done;
  let first20 =
    List.init 20 (fun _ ->
        match q.Queue_disc.dequeue ~now:0. with
        | Some p -> p.Packet.flow
        | None -> -1)
  in
  let f1 = List.length (List.filter (fun f -> f = 1) first20) in
  let f2 = List.length (List.filter (fun f -> f = 2) first20) in
  Alcotest.(check int) "flow1 half" 10 f1;
  Alcotest.(check int) "flow2 half" 10 f2

let test_fq_work_conserving () =
  let q =
    Queue_disc.fq
      ~per_flow:(fun () -> Queue_disc.droptail_bytes ~capacity:1_000_000 ())
      ()
  in
  for seq = 0 to 4 do
    ignore (q.Queue_disc.enqueue ~now:0. (data ~flow:7 ~now:0. seq))
  done;
  let served = ref 0 in
  let continue = ref true in
  while !continue do
    match q.Queue_disc.dequeue ~now:0. with
    | Some _ -> incr served
    | None -> continue := false
  done;
  Alcotest.(check int) "single backlogged flow gets everything" 5 !served

let test_fq_unequal_packet_sizes () =
  let q =
    Queue_disc.fq
      ~per_flow:(fun () -> Queue_disc.droptail_bytes ~capacity:1_000_000 ())
      ()
  in
  (* Flow 1 sends MSS packets, flow 2 sends 300-byte packets; DRR should
     give each roughly equal BYTES, i.e. ~5 small packets per big one. *)
  for seq = 0 to 19 do
    ignore (q.Queue_disc.enqueue ~now:0. (data ~flow:1 ~size:1500 ~now:0. seq))
  done;
  for seq = 0 to 99 do
    ignore (q.Queue_disc.enqueue ~now:0. (data ~flow:2 ~size:300 ~now:0. (1000 + seq)))
  done;
  let bytes = Hashtbl.create 4 in
  for _ = 1 to 60 do
    match q.Queue_disc.dequeue ~now:0. with
    | Some p ->
      let cur = Option.value ~default:0 (Hashtbl.find_opt bytes p.Packet.flow) in
      Hashtbl.replace bytes p.Packet.flow (cur + p.Packet.size)
    | None -> ()
  done;
  let b1 = Option.value ~default:0 (Hashtbl.find_opt bytes 1) in
  let b2 = Option.value ~default:0 (Hashtbl.find_opt bytes 2) in
  let ratio = float_of_int b1 /. float_of_int (max 1 b2) in
  Alcotest.(check bool) "byte fairness" true (ratio > 0.7 && ratio < 1.4)

let test_fq_drops_in_overloaded_subqueue_only () =
  let q =
    Queue_disc.fq
      ~per_flow:(fun () -> Queue_disc.droptail_bytes ~capacity:4500 ())
      ()
  in
  for seq = 0 to 9 do
    ignore (q.Queue_disc.enqueue ~now:0. (data ~flow:1 ~now:0. seq))
  done;
  Alcotest.(check bool) "other flow unaffected" true
    (q.Queue_disc.enqueue ~now:0. (data ~flow:2 ~now:0. 100));
  Alcotest.(check int) "drops only from flow1" 7 (q.Queue_disc.drops ())

(* ------------------------------------------------------------------ *)
(* The shared FIFO *)

(* Random enqueues and dequeues against a list model: the queue grows
   over several chunks, then drains and refills, so chunks are handed
   back and reused many times. *)
let check_against_model name q =
  let rng = Pcc_sim.Rng.create 7 in
  let model = ref [] and next = ref 0 in
  for step = 0 to 3999 do
    let push_p = if step mod 1000 < 600 then 0.7 else 0.3 in
    if Pcc_sim.Rng.bernoulli rng push_p then begin
      let p = data ~size:(100 + Pcc_sim.Rng.int rng 1400) ~now:0. !next in
      incr next;
      if q.Queue_disc.enqueue ~now:(float_of_int step) p then
        model := !model @ [ p ]
    end
    else begin
      let got = q.Queue_disc.dequeue ~now:(float_of_int step) in
      match (got, !model) with
      | None, [] -> ()
      | Some p, m :: rest when p == m -> model := rest
      | _ -> Alcotest.failf "%s: wrong packet out at step %d" name step
    end;
    Alcotest.(check int) (name ^ " pkts") (List.length !model)
      (q.Queue_disc.len_pkts ());
    Alcotest.(check int) (name ^ " bytes")
      (List.fold_left (fun a (p : Packet.t) -> a + p.size) 0 !model)
      (q.Queue_disc.len_bytes ());
    match (q.Queue_disc.peek (), !model) with
    | None, [] -> ()
    | Some p, m :: _ when p == m -> ()
    | _ -> Alcotest.failf "%s: wrong head at step %d" name step
  done

let test_fifo_matches_model () =
  check_against_model "droptail"
    (Queue_disc.droptail_bytes ~capacity:1_000_000 ());
  (* Small enough that RED's early drops fire: only accepted packets
     enter the model. *)
  let red = Queue_disc.red ~capacity:150_000 () in
  check_against_model "red" red;
  Alcotest.(check bool) "red dropped some" true (red.Queue_disc.drops () > 0)

(* A dequeued packet is no longer reachable from the queue. *)
let test_fifo_releases_dequeued () =
  let q = Queue_disc.droptail_bytes ~capacity:1_000_000 () in
  let weak = Weak.create 1 in
  let enqueue () =
    let p = data ~now:0. 0 in
    Weak.set weak 0 (Some p);
    ignore (q.Queue_disc.enqueue ~now:0. p)
  in
  enqueue ();
  ignore (q.Queue_disc.enqueue ~now:0. (data ~now:0. 1));
  Gc.full_major ();
  Alcotest.(check bool) "queued packet kept alive" true (Weak.check weak 0);
  (match q.Queue_disc.dequeue ~now:1. with
  | Some p -> Alcotest.(check int) "head out" 0 p.Packet.seq
  | None -> Alcotest.fail "empty queue");
  Gc.full_major ();
  Alcotest.(check bool) "dequeued packet released" false (Weak.check weak 0);
  Alcotest.(check int) "other packet still queued" 1 (q.Queue_disc.len_pkts ())

let prop_droptail_never_exceeds_capacity =
  QCheck.Test.make ~name:"droptail occupancy <= capacity" ~count:200
    QCheck.(pair (int_range 1500 100000) (list (int_range 0 100)))
    (fun (capacity, ops) ->
      let q = Queue_disc.droptail_bytes ~capacity () in
      let capacity = max capacity Pcc_sim.Units.mss in
      List.for_all
        (fun seq ->
          if seq mod 4 = 0 then ignore (q.Queue_disc.dequeue ~now:0.)
          else ignore (q.Queue_disc.enqueue ~now:0. (data ~now:0. seq));
          q.Queue_disc.len_bytes () <= capacity)
        ops)

let q = QCheck_alcotest.to_alcotest

let suites =
  [
    ( "queue.droptail",
      [
        Alcotest.test_case "fifo" `Quick test_droptail_fifo;
        Alcotest.test_case "capacity" `Quick test_droptail_capacity;
        Alcotest.test_case "min one packet" `Quick test_droptail_min_one_packet;
        Alcotest.test_case "packet limit" `Quick test_droptail_pkts;
        Alcotest.test_case "infinite" `Quick test_infinite_never_drops;
        q prop_droptail_never_exceeds_capacity;
        Alcotest.test_case "fifo matches list model" `Quick
          test_fifo_matches_model;
        Alcotest.test_case "fifo releases dequeued" `Quick
          test_fifo_releases_dequeued;
      ] );
    ( "queue.codel",
      [
        Alcotest.test_case "low delay passthrough" `Quick
          test_codel_low_delay_passthrough;
        Alcotest.test_case "drops on persistent delay" `Quick
          test_codel_drops_on_persistent_delay;
        Alcotest.test_case "recovers after drain" `Quick
          test_codel_recovers_when_queue_drains;
        Alcotest.test_case "drops on reused chunks" `Quick
          test_codel_drops_on_reused_chunks;
      ] );
    ( "queue.red",
      [
        Alcotest.test_case "accepts when empty" `Quick test_red_accepts_when_empty;
        Alcotest.test_case "drops under load" `Quick
          test_red_drops_under_sustained_load;
      ] );
    ( "queue.fq",
      [
        Alcotest.test_case "round robin fair" `Quick test_fq_round_robin_fair;
        Alcotest.test_case "work conserving" `Quick test_fq_work_conserving;
        Alcotest.test_case "byte fairness" `Quick test_fq_unequal_packet_sizes;
        Alcotest.test_case "per-flow isolation" `Quick
          test_fq_drops_in_overloaded_subqueue_only;
      ] );
  ]
