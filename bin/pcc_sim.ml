(* pcc_sim — run ad-hoc congestion-control scenarios from the command
   line.

     pcc_sim run --transport pcc --transport cubic --bw 100 --rtt 30 \
       --loss 0.01 --duration 60
     pcc_sim game --senders 10
     pcc_sim list                                                          *)

open Cmdliner
open Pcc_sim
open Pcc_scenario

let transport_of_string s =
  match Transport.of_name s with
  | Ok t -> Ok t
  | Error msg -> Error (`Msg msg)

let transport_conv =
  let parse s = transport_of_string s in
  let print fmt t = Format.pp_print_string fmt (Transport.name t) in
  Arg.conv (parse, print)

(* Exit statuses: a bad command line is cmdliner's 124 ([`Error]); a
   run that started and failed prints one error line and exits 1. *)
let failed msg =
  prerr_endline ("pcc_sim: " ^ msg);
  `Ok 1

let exits =
  Cmd.Exit.info 1
    ~doc:
      "on a runtime failure: a failed task, run, oracle or replay, or an \
       output path that cannot be created or written."
  :: Cmd.Exit.info Cmd.Exit.cli_error
       ~doc:
         "on a command-line error: an unparsable or out-of-range value, or \
          an unknown name."
  :: List.filter
       (fun i -> Cmd.Exit.info_code i <> Cmd.Exit.cli_error)
       Cmd.Exit.defaults

(* ------------------------------------------------------------------ *)

let queue_of_string = function
  | "droptail" -> Some Topology.Droptail
  | "codel" -> Some Topology.Codel
  | "red" -> Some Topology.Red
  | "infinite" -> Some Topology.Infinite
  | "fq" -> Some (Topology.Fq Topology.Droptail)
  | "fq-codel" -> Some (Topology.Fq Topology.Codel)
  | _ -> None

(* Run [engine] to [duration], reporting every [interval]: [row ~time
   ~span] is called at each k·interval below [duration] and then at
   [duration] itself, with [span] the simulated seconds since the
   previous row. A k·interval within float rounding of [duration] is
   the final row, not a near-empty one before it. *)
let run_intervals engine ~duration ~interval row =
  let rec go k prev =
    let t = float_of_int k *. interval in
    if t < duration -. (interval *. 1e-9) then begin
      Engine.run ~until:t engine;
      row ~time:t ~span:interval;
      go (k + 1) t
    end
    else begin
      Engine.run ~until:duration engine;
      row ~time:duration ~span:(duration -. prev)
    end
  in
  go 1 0.

let mbps bytes span = float_of_int (bytes * 8) /. span /. 1e6

(* The per-flow goodput table of [run] and [topo]: a header of flow
   labels, then one row of per-interval goodputs per report. *)
let flow_table engine ~duration ~interval flows =
  Printf.printf "%8s" "time";
  Array.iter
    (fun (f : Topology.built_flow) ->
      Printf.printf " %14s" f.Topology.def.Topology.label)
    flows;
  Printf.printf "\n";
  let last = Array.make (Array.length flows) 0 in
  run_intervals engine ~duration ~interval (fun ~time ~span ->
      Printf.printf "%7.1fs" time;
      Array.iteri
        (fun j f ->
          let b = Topology.goodput_bytes f in
          Printf.printf " %9.2f Mbps" (mbps (b - last.(j)) span);
          last.(j) <- b)
        flows;
      Printf.printf "\n%!")

let run_cmd transports bw_mbps rtt_ms loss rev_loss jitter_ms buffer_kb queue
    duration seed interval check_invariants =
  Pcc_experiments.Cli_validate.(
    guarded
      [
        positive_f "--bw" bw_mbps;
        positive_f "--rtt" rtt_ms;
        probability "--loss" loss;
        probability "--rev-loss" rev_loss;
        non_negative_f "--jitter" jitter_ms;
        opt positive_i "--buffer" buffer_kb;
        (match queue_of_string queue with
        | Some _ -> Ok ()
        | None ->
          Error
            (Printf.sprintf "error: unknown queue discipline %s (see pcc_sim list)"
               queue));
        positive_f "--duration" duration;
        positive_f "--interval" interval;
      ])
  @@ fun () ->
  let bandwidth = Units.mbps bw_mbps in
  let rtt = rtt_ms /. 1000. in
  let buffer =
    match buffer_kb with
    | Some kb -> kb * 1000
    | None -> Units.bdp_bytes ~rate:bandwidth ~rtt
  in
  let queue_kind = Option.get (queue_of_string queue) in
  let engine = Engine.create () in
  let rng = Rng.create seed in
  let topo =
    Topology.dumbbell engine ~rng ~bandwidth ~rtt ~buffer ~queue:queue_kind
      ~loss ~rev_loss ~jitter:(jitter_ms /. 1000.)
      ~flows:(List.map (fun t -> Topology.flow ~route:[ 0; 1 ] t) transports)
      ()
  in
  if check_invariants then ignore (Invariant.attach_topology topo);
  let flows = Topology.flows topo in
  Printf.printf
    "link: %.1f Mbps, %.1f ms RTT, %d KB %s buffer, loss %.3f%%\n" bw_mbps
    rtt_ms (buffer / 1000) queue (loss *. 100.);
  flow_table engine ~duration ~interval flows;
  Printf.printf "\naverages over the full run:\n";
  Array.iter
    (fun (f : Topology.built_flow) ->
      Printf.printf "  %-14s %8.2f Mbps (srtt %.1f ms)\n"
        f.Topology.def.Topology.label
        (mbps (Topology.goodput_bytes f) duration)
        (f.Topology.sender.Pcc_net.Sender.srtt () *. 1e3))
    flows;
  `Ok 0

let chaos_cmd transport bw_mbps rtt_ms duration seed rate check_invariants =
  Pcc_experiments.Cli_validate.(
    guarded
      [
        positive_f "--bw" bw_mbps;
        positive_f "--rtt" rtt_ms;
        positive_f "--duration" duration;
        positive_f "--rate" rate;
      ])
  @@ fun () ->
  try
  let bandwidth = Units.mbps bw_mbps in
  let rtt = rtt_ms /. 1000. in
  let engine = Engine.create () in
  let rng = Rng.create seed in
  let fault_rng = Rng.split rng in
  let topo =
    Topology.dumbbell engine ~rng ~bandwidth ~rtt
      ~buffer:(Units.bdp_bytes ~rate:bandwidth ~rtt)
      ~flows:[ Topology.flow ~route:[ 0; 1 ] transport ]
      ()
  in
  if check_invariants then ignore (Invariant.attach_topology topo);
  let f = (Topology.flows topo).(0) in
  let recorder =
    Pcc_metrics.Recorder.create engine ~interval:0.25 (fun () ->
        float_of_int (Topology.goodput_bytes f))
  in
  let schedule = Fault.chaos ~rng:fault_rng ~rate ~duration () in
  Fault.inject (Fault.target_of_topology topo) schedule;
  Printf.printf
    "chaos gauntlet: %s on %.1f Mbps / %.1f ms RTT, seed %d, %d faults\n\n"
    f.Topology.def.Topology.label bw_mbps rtt_ms seed (List.length schedule);
  Format.printf "%a@." Fault.pp_schedule schedule;
  Engine.run ~until:duration engine;
  let series = Pcc_metrics.Recorder.rates_bps recorder in
  let reports =
    Pcc_metrics.Recovery.analyze ~series (Fault.windows schedule)
  in
  Format.printf "%a" Pcc_metrics.Recovery.pp_table reports;
  let recovered =
    List.length
      (List.filter
         (fun r -> r.Pcc_metrics.Recovery.time_to_recover <> None)
         reports)
  in
  Printf.printf
    "\nmean goodput %.2f Mbps; recovered from %d/%d faults (>=90%% of \
     pre-fault throughput)\n"
    (mbps (Topology.goodput_bytes f) duration)
    recovered (List.length reports);
  `Ok 0
  with exn ->
    (* A chaos gauntlet that dies mid-run (engine livelock guard, event
       error, invariant violation) must report and exit nonzero, not
       dump a backtrace. *)
    failed
      (Printf.sprintf "error: chaos run failed: %s" (Printexc.to_string exn))

(* Demo shapes for the graph topology layer. "dumbbell" is what `run`
   builds; "parking" and "revpath" are shapes a dumbbell cannot express
   (asymmetric chain, congested ack path); "fanin-large" is the
   many-flow scheduler stress scenario ([--flows] sized PCC transfers
   over one bottleneck, reported in aggregate). *)
let topo_shape ~engine ~rng ~bandwidth ~rtt ~flows_n transports shape =
  let bdp = Units.bdp_bytes ~rate:bandwidth ~rtt in
  match shape with
  | "fanin-large" ->
    Ok
      (Pcc_experiments.Exp_manyflow.topology engine ~rng ~n:flows_n ~bandwidth
         ~rtt)
  | "dumbbell" ->
    Ok
      (Topology.dumbbell engine ~rng ~bandwidth ~rtt ~buffer:bdp
         ~flows:(List.map (fun t -> Topology.flow ~route:[ 0; 1 ] t) transports)
         ())
  | "parking" ->
    (* Asymmetric 3-hop parking lot: the middle hop is the narrowest. The
       first transport runs end to end; the rest take one-hop routes,
       spread round-robin, competing with the long flow hop-locally. *)
    let hop i frac =
      Topology.link
        ~name:(Printf.sprintf "hop%d" i)
        ~delay:(rtt /. 6.)
        ~buffer:(Units.bdp_bytes ~rate:(bandwidth *. frac) ~rtt)
        ~src:i ~dst:(i + 1)
        ~bandwidth:(bandwidth *. frac)
        ()
    in
    let links = [ hop 0 1.0; hop 1 0.5; hop 2 0.8 ] in
    let flows =
      List.mapi
        (fun i t ->
          if i = 0 then
            Topology.flow
              ~label:(Transport.name t ^ "-long")
              ~route:[ 0; 1; 2; 3 ] t
          else begin
            let e = (i - 1) mod 3 in
            Topology.flow
              ~label:(Printf.sprintf "%s-hop%d" (Transport.name t) e)
              ~route:[ e; e + 1 ] t
          end)
        transports
    in
    Ok (Topology.build engine ~rng ~links ~flows ())
  | "revpath" ->
    (* Congested reverse path: acks share a link 100x narrower than the
       data direction, with a shallow buffer. *)
    let links =
      [
        Topology.link ~name:"forward" ~delay:(rtt /. 2.) ~buffer:bdp ~src:0
          ~dst:1 ~bandwidth ();
        Topology.link ~name:"ackpath" ~delay:(rtt /. 2.)
          ~buffer:(Units.kib 4) ~src:1 ~dst:0 ~bandwidth:(bandwidth /. 100.)
          ();
      ]
    in
    let flows =
      List.map
        (fun t -> Topology.flow ~route:[ 0; 1 ] ~rev_route:[ 1; 0 ] t)
        transports
    in
    Ok (Topology.build engine ~rng ~links ~flows ())
  | other ->
    Error
      (Printf.sprintf
         "unknown shape %s (dumbbell, parking, revpath, fanin-large)" other)

(* Per-flow columns are unreadable past a handful of flows, so large
   populations (fanin-large) report aggregates per interval instead:
   completions, goodput, and the live event-queue depth. *)
let topo_report_aggregate ~engine ~duration ~interval topo =
  let flows = Topology.flows topo in
  let n = Array.length flows in
  let total_bytes () =
    Array.fold_left (fun a f -> a + Topology.goodput_bytes f) 0 flows
  in
  let completed () =
    Array.fold_left
      (fun a (f : Topology.built_flow) ->
        if f.Topology.fct <> None then a + 1 else a)
      0 flows
  in
  Printf.printf "\n%8s %10s %12s %14s %12s\n" "time" "completed" "agg Mbps"
    "total events" "pending";
  let last = ref 0 in
  run_intervals engine ~duration ~interval (fun ~time ~span ->
      let b = total_bytes () in
      Printf.printf "%7.1fs %6d/%-4d %12.2f %14d %12d\n%!" time (completed ())
        n
        (mbps (b - !last) span)
        (Engine.executed engine) (Engine.pending engine);
      last := b);
  Printf.printf
    "\n%d/%d flows completed; %.1f MB delivered; %d events executed\n"
    (completed ()) n
    (float_of_int (total_bytes ()) /. 1e6)
    (Engine.executed engine)

let topo_cmd transports shape flows_n bw_mbps rtt_ms duration seed interval
    describe check_invariants =
  Pcc_experiments.Cli_validate.(
    guarded
      [
        positive_f "--bw" bw_mbps;
        positive_f "--rtt" rtt_ms;
        positive_f "--duration" duration;
        positive_f "--interval" interval;
        positive_i "--flows" flows_n;
      ])
  @@ fun () ->
  let bandwidth = Units.mbps bw_mbps in
  let rtt = rtt_ms /. 1000. in
  let engine = Engine.create () in
  let rng = Rng.create seed in
  match topo_shape ~engine ~rng ~bandwidth ~rtt ~flows_n transports shape with
  | exception Invalid_argument msg -> `Error (false, "error: " ^ msg)
  | Error msg -> `Error (false, msg)
  | Ok topo when Array.length (Topology.flows topo) > 16 ->
    Printf.printf "%d nodes, %d links, %d flows\n" (Topology.num_nodes topo)
      (Topology.num_links topo)
      (Array.length (Topology.flows topo));
    if describe then `Ok 0
    else begin
      if check_invariants then ignore (Invariant.attach_topology topo);
      topo_report_aggregate ~engine ~duration ~interval topo;
      `Ok 0
    end
  | Ok topo ->
    print_string (Topology.describe topo);
    if describe then `Ok 0
    else begin
      if check_invariants then ignore (Invariant.attach_topology topo);
      let flows = Topology.flows topo in
      Printf.printf "\n";
      flow_table engine ~duration ~interval flows;
      Printf.printf "\naverages over the full run:\n";
      Array.iteri
        (fun j (f : Topology.built_flow) ->
          let min_cap =
            List.fold_left
              (fun acc id ->
                Float.min acc
                  (Pcc_net.Link.bandwidth (Topology.link_at topo id)))
              infinity
              (Topology.route_links topo ~flow:j)
          in
          Printf.printf
            "  %-14s %8.2f Mbps (route cap %.1f Mbps, srtt %.1f ms)\n"
            f.Topology.def.Topology.label
            (mbps (Topology.goodput_bytes f) duration)
            (min_cap /. 1e6)
            (f.Topology.sender.Pcc_net.Sender.srtt () *. 1e3))
        flows;
      `Ok 0
    end

(* ------------------------------------------------------------------ *)
(* Tracing *)

let mask_of_categories s =
  let parts =
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.filter (fun x -> x <> "")
  in
  let folded =
    List.fold_left
      (fun acc name ->
        match acc with
        | Error _ -> acc
        | Ok m -> (
          match Pcc_trace.Event.cat_of_string name with
          | Some c -> Ok (m lor c)
          | None ->
            Error
              (Printf.sprintf
                 "unknown trace category %s (engine, link, pcc, tcp, flow, \
                  all, default)"
                 name)))
      (Ok 0) parts
  in
  match folded with
  | Ok 0 -> Error "no trace category selected"
  | r -> r

(* Prints a written trace's summary line; returns the error of a trace
   that could not be written. *)
let trace_written = function
  | Ok line ->
    Printf.printf "%s/{trace.json,trace.csv,decisions.log}\n" line;
    []
  | Error m -> [ m ]

(* Creates every output directory before any simulation runs, so a path
   that cannot exist fails the command up front instead of after the
   run. *)
let with_output_dirs dirs k =
  match Pcc_experiments.Runner.make_dirs dirs with
  | Ok () -> k ()
  | Error m -> failed ("error: " ^ m)

let trace_cmd transports shape bw_mbps rtt_ms duration seed out_dir capacity
    categories probe_ms =
  match mask_of_categories categories with
  | Error msg -> `Error (false, "error: " ^ msg)
  | Ok mask ->
    Pcc_experiments.Cli_validate.(
      guarded
        [
          positive_f "--bw" bw_mbps;
          positive_f "--rtt" rtt_ms;
          positive_f "--duration" duration;
          positive_i "--buffer-events" capacity;
          positive_f "--probe-interval" probe_ms;
        ])
    @@ fun () ->
    with_output_dirs [ out_dir ] @@ fun () ->
    begin
      let bandwidth = Units.mbps bw_mbps in
      let rtt = rtt_ms /. 1000. in
      let collector =
        Pcc_trace.Collector.create ~capacity ~mask
          ~probe_interval:(probe_ms /. 1000.) ()
      in
      Pcc_trace.Collector.install collector;
      let engine = Engine.create () in
      let rng = Rng.create seed in
      match
        topo_shape ~engine ~rng ~bandwidth ~rtt ~flows_n:1000 transports
          shape
      with
      | Error msg ->
        Pcc_trace.Collector.uninstall ();
        `Error (false, msg)
      | Ok _topo -> (
        Engine.run ~until:duration engine;
        match
          trace_written
            (Pcc_experiments.Runner.finish_trace ~dir:out_dir collector)
        with
        | [] -> `Ok 0
        | m :: _ -> failed ("error: " ^ m))
    end

let game_cmd senders capacity steps =
  Pcc_experiments.Cli_validate.(
    guarded
      [
        at_least "--senders" 1 senders;
        positive_f "--capacity" capacity;
        non_negative_i "--steps" steps;
      ])
  @@ fun () ->
  let x0 =
    Array.init senders (fun i -> capacity /. float_of_int (i + 2))
  in
  let x = ref x0 in
  Printf.printf "step  rates (C = %.0f)\n" capacity;
  for s = 0 to steps do
    if s mod (max 1 (steps / 20)) = 0 then begin
      Printf.printf "%4d " s;
      Array.iter (fun v -> Printf.printf " %7.2f" v) !x;
      Printf.printf "  jain=%.4f\n"
        (Pcc_metrics.Stats.jain_index !x)
    end;
    x := Pcc_core.Game.step ~c:capacity !x
  done;
  `Ok 0

(* Hidden supervision self-test: a sweep with a deliberate hang and a
   deliberate crash, enabled by PCC_TEST_HANG so CI can assert that a
   supervised sweep survives both, names them in the report, and exits
   nonzero. *)
let selftest_entry : Pcc_experiments.Exp_registry.entry =
  let open Pcc_experiments in
  let hang () =
    (* An engine that reschedules itself forever: only a Task_guard
       deadline or event ceiling gets us out. *)
    let engine = Engine.create () in
    let rec tick () = Engine.post_in engine ~after:1e-3 tick in
    tick ();
    Engine.run engine;
    0.
  in
  let tasks =
    [
      Exp_common.task ~label:"selftest/ok-before" (fun () -> 1.);
      Exp_common.task ~label:"selftest/hang" hang;
      Exp_common.task ~label:"selftest/crash" (fun () ->
          failwith "selftest: injected crash");
      Exp_common.task ~label:"selftest/ok-after" (fun () -> 2.);
    ]
  in
  {
    Exp_registry.name = "selftest";
    descr = "supervision self-test: ok / hang / crash / ok (PCC_TEST_HANG)";
    parallel = true;
    exp =
      Exp
        {
          run =
            (fun ?pool ~scale:_ ~seed:_ () ->
              Exp_common.run_tasks_opt ?pool tasks);
          tables =
            (fun results ->
              [
                {
                  Exp_common.title = "supervision self-test";
                  header = [ "task"; "result" ];
                  rows =
                    List.map2
                      (fun t r ->
                        [
                          Exp_common.task_label t;
                          (match r with
                          | Some v -> Printf.sprintf "%.0f" v
                          | None -> "n/a");
                        ])
                      tasks results;
                  note = None;
                };
              ]);
          series = (fun _ -> []);
        };
  }

let exp_cmd names scale seed jobs dump_dir trace_out list_exps deadline
    max_events forensics forensic_trace =
  let open Pcc_experiments in
  if list_exps then begin
    print_string (Exp_registry.listing ());
    `Ok 0
  end
  else
    Pcc_experiments.Cli_validate.(
      guarded
        [
          positive_f "--scale" scale;
          at_least "--jobs" 1 jobs;
          opt positive_f "--deadline" deadline;
          opt positive_i "--max-task-events" max_events;
        ])
    @@ fun () ->
    let extra =
      if Sys.getenv_opt "PCC_TEST_HANG" <> None then [ selftest_entry ] else []
    in
    match Exp_registry.select ~extra names with
    | Error msg -> `Error (false, msg)
    | Ok entries ->
      with_output_dirs (List.filter_map Fun.id [ dump_dir; trace_out ])
      @@ fun () ->
      Runner.reset_failures ();
      let sweep ~jobs =
        List.filter_map
          (fun e ->
            let open Exp_registry in
            print_string (header e);
            flush stdout;
            let pool =
              Runner.create ~jobs ?deadline ?max_events ~forensics_dir:forensics
                ~forensic_trace
                ~repro_context:
                  (Printf.sprintf "pcc_sim exp %s --scale %g --seed %d" e.name
                     scale seed)
                ()
            in
            let out, write_error = render ~pool ?dump_dir ~scale ~seed e in
            print_string out;
            flush stdout;
            write_error)
          entries
      in
      let write_errors, trace = Runner.traced trace_out ~jobs sweep in
      let trace_errors = Option.fold ~none:[] ~some:trace_written trace in
      (* Partial results were printed above; now make the failure
         visible in the exit status with a one-line summary. It names
         the forensics directory only if a bundle was written there. *)
      let bundled =
        List.exists (fun o -> o.Runner.forensics <> None) (Runner.failures ())
      in
      let task_errors =
        Option.map
          (fun s ->
            if bundled then Printf.sprintf "%s (forensics in %s/)" s forensics
            else s)
          (Runner.failure_summary ())
      in
      match Option.to_list task_errors @ write_errors @ trace_errors with
      | [] -> `Ok 0
      | errors -> failed ("error: " ^ String.concat "; " errors)

(* ------------------------------------------------------------------ *)
(* Scenario fuzzing *)

let fuzz_cmd runs seed corpus deep_every shrink_budget transports replay
    replay_dir =
  Pcc_experiments.Cli_validate.(
    guarded
      [
        non_negative_i "--runs" runs;
        non_negative_i "--deep-every" deep_every;
        non_negative_i "--shrink-budget" shrink_budget;
      ])
  @@ fun () ->
  let menu_result =
    match transports with
    | None -> Ok None
    | Some spec -> (
      let names =
        List.filter
          (fun s -> s <> "")
          (String.split_on_char ',' spec |> List.map String.trim)
      in
      if names = [] then Error "--transports: empty transport list"
      else
        match
          List.find_map
            (fun n ->
              match Pcc_scenario.Transport.of_name n with
              | Ok _ -> None
              | Error m -> Some m)
            names
        with
        | Some m -> Error ("--transports: " ^ m)
        | None -> Ok (Some names))
  in
  match menu_result with
  | Error m -> `Error (false, "error: " ^ m)
  | Ok menu ->
  match
    try Ok (Pcc_fuzz.Driver.synth_of_env ())
    with Invalid_argument m -> Error m
  with
  | Error m -> `Error (false, "error: " ^ m)
  | Ok synth_opt -> (
    let synth = Option.value synth_opt ~default:(fun _ -> None) in
    match (replay, replay_dir) with
    | Some path, _ -> (
      match Pcc_fuzz.Driver.replay ~synth path with
      | Ok () ->
        Printf.printf "replay %s: all oracles pass\n" path;
        `Ok 0
      | Error f ->
        failed
          (Printf.sprintf "error: replay %s fails %s: %s" path
             f.Pcc_fuzz.Oracle.oracle f.Pcc_fuzz.Oracle.detail)
      | exception Failure m -> failed ("error: " ^ m)
      | exception Persist.Corrupt m -> failed ("error: corrupt repro: " ^ m)
      | exception Sys_error m -> failed ("error: " ^ m))
    | None, Some dir -> (
      match Pcc_fuzz.Driver.replay_dir ~synth ~log:print_endline dir with
      | [] ->
        Printf.printf "corpus %s: all repros pass\n" dir;
        `Ok 0
      | failing ->
        failed
          (Printf.sprintf "error: %d corpus repro(s) still fail"
             (List.length failing))
      | exception Failure m -> failed ("error: " ^ m)
      | exception Persist.Corrupt m -> failed ("error: corrupt repro: " ^ m)
      | exception Sys_error m -> failed ("error: " ^ m))
    | None, None -> (
      let summary =
        Pcc_fuzz.Driver.fuzz ~synth ~deep_every ~shrink_budget
          ?corpus_dir:corpus ?menu ~log:print_endline ~runs ~seed ()
      in
      match summary.Pcc_fuzz.Driver.failed with
      | [] -> `Ok 0
      | reports ->
        let oracles =
          List.map
            (fun (r : Pcc_fuzz.Driver.failure_report) ->
              Printf.sprintf "run %d (%s)" r.Pcc_fuzz.Driver.run
                r.Pcc_fuzz.Driver.failure.Pcc_fuzz.Oracle.oracle)
            reports
        in
        failed
          (Printf.sprintf "error: %d/%d fuzz run(s) failed: %s"
             (List.length reports) runs
             (String.concat ", " oracles))))

let list_cmd () =
  Printf.printf "transports:\n";
  List.iter (Printf.printf "  %s\n") Transport.all_names;
  Printf.printf "queues:\n  droptail codel red infinite fq fq-codel\n";
  `Ok 0

(* ------------------------------------------------------------------ *)

let transports_arg =
  Arg.(
    value
    & opt_all transport_conv [ Transport.pcc () ]
    & info [ "t"; "transport" ] ~docv:"NAME"
        ~doc:"Transport for one flow (repeatable). See $(b,pcc_sim list).")

let bw_arg =
  Arg.(value & opt float 100. & info [ "bw" ] ~docv:"MBPS" ~doc:"Bottleneck bandwidth.")

let rtt_arg =
  Arg.(value & opt float 30. & info [ "rtt" ] ~docv:"MS" ~doc:"Base round-trip time.")

let loss_arg =
  Arg.(value & opt float 0. & info [ "loss" ] ~docv:"P" ~doc:"Forward random loss probability.")

let rev_loss_arg =
  Arg.(value & opt float 0. & info [ "rev-loss" ] ~docv:"P" ~doc:"Ack-path random loss probability.")

let jitter_arg =
  Arg.(value & opt float 0. & info [ "jitter" ] ~docv:"MS" ~doc:"Uniform extra forward delay bound.")

let buffer_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "buffer" ] ~docv:"KB" ~doc:"Bottleneck buffer (default: one BDP).")

let queue_arg =
  Arg.(
    value & opt string "droptail"
    & info [ "queue" ] ~docv:"KIND" ~doc:"Queue discipline (see $(b,pcc_sim list)).")

let duration_arg =
  Arg.(value & opt float 30. & info [ "duration" ] ~docv:"S" ~doc:"Simulated seconds.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"RNG seed.")

let interval_arg =
  Arg.(value & opt float 1. & info [ "interval" ] ~docv:"S" ~doc:"Reporting interval.")

let check_invariants_arg =
  Arg.(
    value & flag
    & info [ "check-invariants" ]
        ~doc:
          "Attach the runtime invariant checker (packet conservation, queue \
           occupancy, throughput bounds) to the topology; any violation \
           aborts the run with a diagnostic.")

let run_term =
  Term.(
    ret
      (const run_cmd $ transports_arg $ bw_arg $ rtt_arg $ loss_arg
     $ rev_loss_arg $ jitter_arg $ buffer_arg $ queue_arg $ duration_arg
     $ seed_arg $ interval_arg $ check_invariants_arg))

let chaos_term =
  let transport_arg =
    Arg.(
      value
      & opt transport_conv (Transport.pcc ())
      & info [ "t"; "transport" ] ~docv:"NAME"
          ~doc:"Transport to run through the gauntlet.")
  in
  let chaos_duration_arg =
    Arg.(
      value & opt float 60.
      & info [ "duration" ] ~docv:"S" ~doc:"Simulated seconds.")
  in
  let rate_arg =
    Arg.(
      value & opt float 0.1
      & info [ "rate" ] ~docv:"HZ"
          ~doc:"Mean Poisson fault arrival rate (faults per second).")
  in
  Term.(
    ret
      (const chaos_cmd $ transport_arg $ bw_arg $ rtt_arg $ chaos_duration_arg
     $ seed_arg $ rate_arg $ check_invariants_arg))

let topo_term =
  let shape_arg =
    Arg.(
      value & opt string "dumbbell"
      & info [ "shape" ] ~docv:"SHAPE"
          ~doc:
            "Topology shape: $(b,dumbbell) (one bottleneck), $(b,parking) \
             (asymmetric 3-hop chain), $(b,revpath) (ack path 100x narrower \
             than the data path), or $(b,fanin-large) ($(b,--flows) sized \
             PCC transfers over one bottleneck, reported in aggregate).")
  in
  let flows_arg =
    Arg.(
      value & opt int 10_000
      & info [ "flows" ] ~docv:"N"
          ~doc:
            "Flow population for $(b,fanin-large) (other shapes take one \
             flow per $(b,--transport)).")
  in
  let describe_arg =
    Arg.(
      value & flag
      & info [ "describe" ]
          ~doc:"Print the built graph (nodes, links, routes) and exit.")
  in
  Term.(
    ret
      (const topo_cmd $ transports_arg $ shape_arg $ flows_arg $ bw_arg
     $ rtt_arg $ duration_arg $ seed_arg $ interval_arg $ describe_arg
     $ check_invariants_arg))

let game_term =
  let senders =
    Arg.(value & opt int 4 & info [ "senders" ] ~docv:"N" ~doc:"Competing senders.")
  in
  let capacity =
    Arg.(value & opt float 100. & info [ "capacity" ] ~docv:"C" ~doc:"Link capacity.")
  in
  let steps =
    Arg.(value & opt int 2000 & info [ "steps" ] ~docv:"N" ~doc:"Dynamics rounds.")
  in
  Term.(ret (const game_cmd $ senders $ capacity $ steps))

let exp_term =
  let names_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"EXPERIMENT"
          ~doc:"Experiments to run (default: all). See $(b,--list).")
  in
  let scale_arg =
    Arg.(
      value & opt float 0.3
      & info [ "scale" ] ~docv:"S"
          ~doc:"Fraction of the paper's run durations.")
  in
  let jobs_arg =
    Arg.(
      value & opt int (Pcc_experiments.Runner.default_jobs ())
      & info [ "jobs"; "j" ] ~docv:"N"
          ~doc:
            "Worker domains for the simulation fan-out (default: the \
             machine's recommended domain count). Output is byte-identical \
             for every N.")
  in
  let dump_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump-dir" ] ~docv:"DIR"
          ~doc:"Also write fig11/fig12 time-series CSVs into $(docv).")
  in
  let list_arg =
    Arg.(value & flag & info [ "list" ] ~doc:"List experiments and exit.")
  in
  let trace_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"DIR"
          ~doc:
            "Record a structured event trace of the whole run and write \
             $(docv)/{trace.json,trace.csv,decisions.log}. Forces \
             $(b,--jobs) 1.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"S"
          ~doc:
            "Per-task wall-clock budget in seconds. A task past it is timed \
             out in place (inside the engine) or abandoned by the watchdog \
             (stuck outside it); the sweep continues with partial results.")
  in
  let max_events_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-task-events" ] ~docv:"N"
          ~doc:
            "Per-task engine event ceiling — a deterministic budget, unlike \
             $(b,--deadline).")
  in
  let forensics_arg =
    Arg.(
      value & opt string "forensics"
      & info [ "forensics" ] ~docv:"DIR"
          ~doc:
            "Directory for per-task failure bundles: exception, backtrace, \
             seed and exact repro command line, plus the task's trace ring \
             when one is recording.")
  in
  let forensic_trace_arg =
    Arg.(
      value & flag
      & info [ "forensic-trace" ]
          ~doc:
            "Record every task into a private trace ring so a failure dumps \
             its recent event history into the forensics bundle even in an \
             otherwise untraced run.")
  in
  Term.(
    ret
      (const exp_cmd $ names_arg $ scale_arg $ seed_arg $ jobs_arg $ dump_arg
     $ trace_out_arg $ list_arg $ deadline_arg $ max_events_arg
     $ forensics_arg $ forensic_trace_arg))

let trace_term =
  let shape_arg =
    Arg.(
      value & opt string "dumbbell"
      & info [ "shape" ] ~docv:"SHAPE"
          ~doc:
            "Topology shape, as in $(b,pcc_sim topo): $(b,dumbbell), \
             $(b,parking), or $(b,revpath).")
  in
  let out_arg =
    Arg.(
      value & opt string "trace-out"
      & info [ "out"; "o" ] ~docv:"DIR"
          ~doc:"Directory for trace.json, trace.csv and decisions.log.")
  in
  let capacity_arg =
    Arg.(
      value & opt int 262144
      & info [ "buffer-events" ] ~docv:"N"
          ~doc:
            "Ring-buffer capacity in events; once full the oldest events \
             are overwritten.")
  in
  let categories_arg =
    Arg.(
      value & opt string "default"
      & info [ "categories" ] ~docv:"CATS"
          ~doc:
            "Comma-separated event categories to record: $(b,link), \
             $(b,pcc), $(b,tcp), $(b,flow), $(b,engine) (per-dispatch \
             records, voluminous), $(b,all), or $(b,default) (all but \
             engine).")
  in
  let probe_arg =
    Arg.(
      value & opt float 10.
      & info [ "probe-interval" ] ~docv:"MS"
          ~doc:"Link-queue occupancy sampling period.")
  in
  let trace_duration_arg =
    Arg.(
      value & opt float 10.
      & info [ "duration" ] ~docv:"S" ~doc:"Simulated seconds.")
  in
  Term.(
    ret
      (const trace_cmd $ transports_arg $ shape_arg $ bw_arg $ rtt_arg
     $ trace_duration_arg $ seed_arg $ out_arg $ capacity_arg
     $ categories_arg $ probe_arg))

let fuzz_term =
  let runs_arg =
    Arg.(
      value & opt int 100
      & info [ "runs" ] ~docv:"N" ~doc:"Random scenarios to generate and test.")
  in
  let fuzz_seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Master seed; each run derives its own. The whole campaign — \
             scenarios, oracle verdicts, shrinking, output — is a pure \
             function of ($(b,--seed), $(b,--runs)).")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Bank a minimized self-contained repro file for every failure \
             into $(docv) (created if missing).")
  in
  let deep_every_arg =
    Arg.(
      value & opt int 8
      & info [ "deep-every" ] ~docv:"N"
          ~doc:
            "Run the expensive supervisor differential (the scenario as an \
             executor task at --jobs 1 and 2) on every $(docv)th scenario \
             (0 disables it).")
  in
  let shrink_budget_arg =
    Arg.(
      value & opt int 300
      & info [ "shrink-budget" ] ~docv:"N"
          ~doc:"Oracle invocations the minimizer may spend per failure.")
  in
  let transports_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "transports" ] ~docv:"NAMES"
          ~doc:
            "Comma-separated transport names restricting the generator's \
             menu (e.g. \
             $(b,pcc,pcc-vivace,pcc-proteus,pcc-proteus-scavenger) for a \
             controllers-only campaign). Default: every known transport.")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Replay one repro file under the full oracle suite instead of \
             fuzzing; exits 0 when every oracle passes.")
  in
  let replay_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay-dir" ] ~docv:"DIR"
          ~doc:
            "Replay every $(b,.repro) file in $(docv); exits 0 when the \
             whole corpus passes.")
  in
  Term.(
    ret
      (const fuzz_cmd $ runs_arg $ fuzz_seed_arg $ corpus_arg $ deep_every_arg
     $ shrink_budget_arg $ transports_arg $ replay_arg $ replay_dir_arg))

let cmds =
  [
    Cmd.v
      (Cmd.info "run" ~exits ~doc:"Simulate flows sharing one bottleneck link")
      run_term;
    Cmd.v
      (Cmd.info "exp" ~exits
         ~doc:
           "Reproduce the paper's experiments (optionally in parallel with \
            --jobs)")
      exp_term;
    Cmd.v
      (Cmd.info "topo" ~exits
         ~doc:
           "Simulate flows on a graph topology (multi-hop chains, congested \
            reverse paths)")
      topo_term;
    Cmd.v
      (Cmd.info "trace" ~exits
         ~doc:
           "Run a scenario with the structured tracer on and export \
            Perfetto-loadable JSON, CSV series and a decision log")
      trace_term;
    Cmd.v
      (Cmd.info "chaos" ~exits
         ~doc:
           "Run a transport through a seeded fault gauntlet and report \
            per-fault recovery")
      chaos_term;
    Cmd.v
      (Cmd.info "game" ~exits
         ~doc:"Run the Sec. 2.2 game dynamics (Theorems 1-2)")
      game_term;
    Cmd.v
      (Cmd.info "fuzz" ~exits
         ~doc:
           "Generate random scenarios, test them against invariant and \
            differential oracles, and minimize any failure into a replayable \
            repro file")
      fuzz_term;
    Cmd.v
      (Cmd.info "list" ~exits ~doc:"List transports and queue disciplines")
      Term.(ret (const list_cmd $ const ()));
  ]

let () =
  let doc = "packet-level simulator for the PCC congestion-control paper" in
  exit (Cmd.eval' (Cmd.group (Cmd.info "pcc_sim" ~doc ~exits) cmds))
