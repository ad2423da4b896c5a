type series = string * (string * (float * float) array) list

type exp =
  | Exp : {
      run : ?pool:Runner.t -> scale:float -> seed:int -> unit -> 'r;
      tables : 'r -> Exp_common.table list;
      series : 'r -> series list;
    }
      -> exp

type entry = {
  name : string;
  descr : string;
  parallel : bool;
      (* Whether a Runner pool pays for itself. An experiment whose whole
         sweep is sub-second cannot amortize the domain fan-out (spawn,
         lock handshakes, multi-domain minor-GC coordination), so the
         bench harness runs it sequentially even under --jobs N rather
         than report a meaningless slowdown. *)
  exp : exp;
}

let run ?pool ~scale ~seed e =
  match e.exp with
  | Exp x ->
    let r = x.run ?pool ~scale ~seed () in
    ( String.concat "" (List.map Exp_common.render_table (x.tables r)),
      x.series r )

let write_series ~dir series =
  match
    List.map
      (fun (file, s) ->
        let path = Filename.concat dir file in
        Pcc_metrics.Series_io.write_multi_series ~path s;
        Printf.sprintf "[series written to %s]\n" path)
      series
  with
  | lines -> Ok (String.concat "" lines)
  | exception Sys_error m -> Error m

let render ?pool ?dump_dir ~scale ~seed e =
  let text, series = run ?pool ~scale ~seed e in
  match Option.map (fun dir -> write_series ~dir series) dump_dir with
  | None -> (text, None)
  | Some (Ok lines) -> (text ^ lines, None)
  | Some (Error m) -> (text, Some m)

let entry ?(parallel = true) ?(series = fun _ -> []) name descr run tables =
  { name; descr; parallel; exp = Exp { run; tables; series } }

let fig11_series (_, protocols) =
  let mbps field pts =
    Array.of_list
      (List.map (fun p -> (p.Exp_dynamic.time, field p /. 1e6)) pts)
  in
  [
    ( "fig11_rate_tracking.csv",
      List.concat_map
        (fun (name, pts) ->
          [
            (name ^ "-rate", mbps (fun p -> p.Exp_dynamic.rate) pts);
            (name ^ "-optimal", mbps (fun p -> p.Exp_dynamic.optimal) pts);
          ])
        protocols );
  ]

let fig12_series results =
  List.map
    (fun (r : Exp_convergence.protocol_result) ->
      ( Printf.sprintf "fig12_%s_rates.csv" r.protocol,
        List.mapi
          (fun i s ->
            ( Printf.sprintf "flow%d" (i + 1),
              Array.map (fun (t, v) -> (t, v /. 1e6)) s ))
          r.series ))
    results

let all : entry list =
  [
    (* ~300 ms of total work across five uneven tasks: measured 0.44x
       "speedup" at --jobs 2, i.e. the pool costs more than the sweep. *)
    entry ~parallel:false "game"
      "Theorems 1-2: game dynamics, equilibrium, naive-utility contrast"
      (fun ?pool ~scale:_ ~seed () -> Exp_game.run ?pool ~seed ())
      (fun r -> [ Exp_game.table r ]);
    entry "fig5" "Fig. 4/5: large-scale Internet experiment (synthetic paths)"
      (fun ?pool ~scale ~seed () -> Exp_internet.run ?pool ~scale ~seed ())
      (fun r -> [ Exp_internet.table r ]);
    entry "table1" "Table 1: inter-data-center paths over reserved bandwidth"
      (fun ?pool ~scale ~seed () -> Exp_interdc.run ?pool ~scale ~seed ())
      (fun r -> [ Exp_interdc.table r ]);
    entry "fig6" "Fig. 6: emulated satellite links"
      (fun ?pool ~scale ~seed () -> Exp_satellite.run ?pool ~scale ~seed ())
      (fun r -> [ Exp_satellite.table r ]);
    entry "fig7" "Fig. 7: random loss resilience"
      (fun ?pool ~scale ~seed () -> Exp_loss.run ?pool ~scale ~seed ())
      (fun r -> [ Exp_loss.table r ]);
    entry "fig8" "Fig. 8: RTT fairness"
      (fun ?pool ~scale ~seed () -> Exp_rtt_fairness.run ?pool ~scale ~seed ())
      (fun r -> [ Exp_rtt_fairness.table r ]);
    entry "fig9" "Fig. 9: shallow bottleneck buffers"
      (fun ?pool ~scale ~seed () -> Exp_buffer.run ?pool ~scale ~seed ())
      (fun r -> [ Exp_buffer.table r ]);
    entry "fig10" "Fig. 10: data-center incast"
      (fun ?pool ~scale ~seed () -> Exp_incast.run ?pool ~scale ~seed ())
      (fun r -> [ Exp_incast.table r ]);
    entry "fig11" "Fig. 11: rapidly changing network" ~series:fig11_series
      (fun ?pool ~scale ~seed () -> Exp_dynamic.run ?pool ~scale ~seed ())
      (fun (rows, _) -> [ Exp_dynamic.table rows ]);
    entry "fig12" "Fig. 12/13: convergence and fairness of competing flows"
      ~series:fig12_series
      (fun ?pool ~scale ~seed () -> Exp_convergence.run ?pool ~scale ~seed ())
      (fun r -> [ Exp_convergence.table r ]);
    entry "fig14" "Fig. 14: TCP friendliness vs parallel-TCP selfishness"
      (fun ?pool ~scale ~seed () -> Exp_friendliness.run ?pool ~scale ~seed ())
      (fun r -> [ Exp_friendliness.table r ]);
    entry "fig15" "Fig. 15: short-flow completion times"
      (fun ?pool ~scale ~seed () -> Exp_fct.run ?pool ~scale ~seed ())
      (fun r -> [ Exp_fct.table r ]);
    entry "fig16" "Fig. 16: stability vs reactiveness trade-off"
      (fun ?pool ~scale ~seed () -> Exp_tradeoff.run ?pool ~scale ~seed ())
      (fun r -> [ Exp_tradeoff.table r ]);
    entry "fig17" "Fig. 17: power under FQ with CoDel vs bufferbloat"
      (fun ?pool ~scale ~seed () -> Exp_power.run ?pool ~scale ~seed ())
      (fun r -> [ Exp_power.table r ]);
    entry "highloss" "Sec. 4.4.2: loss-resilient utility under 10-50% loss"
      (fun ?pool ~scale ~seed () -> Exp_high_loss.run ?pool ~scale ~seed ())
      (fun r -> [ Exp_high_loss.table r ]);
    entry "ablation" "Ablations: confidence-bound loss estimate, MI sizing"
      (fun ?pool ~scale ~seed () -> Exp_ablation.run ?pool ~scale ~seed ())
      (fun r -> [ Exp_ablation.table r ]);
    entry "controllers"
      "Controller family: Allegro/Vivace/Proteus/CUBIC head-to-head and \
       scavenger-vs-primary sharing"
      (fun ?pool ~scale ~seed () -> Exp_controllers.run ?pool ~scale ~seed ())
      (fun (head, phases) ->
        [ Exp_controllers.table head; Exp_controllers.phase_table phases ]);
    entry "manyflow" "Scale: 10k-flow fan-in stress (scheduler and pooling)"
      (fun ?pool ~scale ~seed () -> Exp_manyflow.run ?pool ~scale ~seed ())
      (fun r -> [ Exp_manyflow.table r ]);
  ]

let select ~extra = function
  | [] -> Ok all
  | names -> (
    let find n = List.find_opt (fun e -> e.name = n) (all @ extra) in
    match List.filter (fun n -> find n = None) names with
    | [] -> Ok (List.filter_map find names)
    | unknown ->
      Error
        (Printf.sprintf "error: unknown experiment(s): %s (try --list)"
           (String.concat ", " unknown)))

let listing () =
  String.concat ""
    (List.map (fun e -> Printf.sprintf "%-10s %s\n" e.name e.descr) all)

let header e = Printf.sprintf "\n### %s — %s\n" e.name e.descr
