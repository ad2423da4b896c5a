type entry = {
  name : string;
  descr : string;
  parallel : bool;
      (* Whether a Runner pool pays for itself. An experiment whose whole
         sweep is sub-second cannot amortize the domain fan-out (spawn,
         lock handshakes, multi-domain minor-GC coordination), so the
         bench harness runs it sequentially even under --jobs N rather
         than report a meaningless slowdown. *)
  render :
    ?pool:Runner.t ->
    ?dump_dir:string ->
    scale:float ->
    seed:int ->
    unit ->
    string;
}

let simple ?(parallel = true) name descr render =
  { name; descr; parallel;
    render = (fun ?pool ?dump_dir:_ ~scale ~seed () ->
        render ?pool ~scale ~seed ()) }

let fig11 =
  {
    name = "fig11";
    parallel = true;
    descr = "Fig. 11: rapidly changing network";
    render =
      (fun ?pool ?dump_dir ~scale ~seed () ->
        let rows, series = Exp_dynamic.run ?pool ~scale ~seed () in
        let out = Exp_common.render_table (Exp_dynamic.table rows) in
        match dump_dir with
        | None -> out
        | Some dir ->
          let all =
            List.concat_map
              (fun (name, pts) ->
                [
                  ( name ^ "-rate",
                    Array.of_list
                      (List.map
                         (fun p -> Exp_dynamic.(p.time, p.rate /. 1e6))
                         pts) );
                  ( name ^ "-optimal",
                    Array.of_list
                      (List.map
                         (fun p -> Exp_dynamic.(p.time, p.optimal /. 1e6))
                         pts) );
                ])
              series
          in
          let path = Filename.concat dir "fig11_rate_tracking.csv" in
          Pcc_metrics.Series_io.write_multi_series ~path all;
          out ^ Printf.sprintf "[series written to %s]\n" path);
  }

let fig12 =
  {
    name = "fig12";
    parallel = true;
    descr = "Fig. 12/13: convergence and fairness of competing flows";
    render =
      (fun ?pool ?dump_dir ~scale ~seed () ->
        let results = Exp_convergence.run ?pool ~scale ~seed () in
        let out = Exp_common.render_table (Exp_convergence.table results) in
        match dump_dir with
        | None -> out
        | Some dir ->
          List.fold_left
            (fun out r ->
              let open Exp_convergence in
              let series =
                List.mapi
                  (fun i s ->
                    ( Printf.sprintf "flow%d" (i + 1),
                      Array.map (fun (t, v) -> (t, v /. 1e6)) s ))
                  r.series
              in
              let path =
                Filename.concat dir
                  (Printf.sprintf "fig12_%s_rates.csv" r.protocol)
              in
              Pcc_metrics.Series_io.write_multi_series ~path series;
              out ^ Printf.sprintf "[series written to %s]\n" path)
            out results);
  }

let all : entry list =
  [
    (* ~300 ms of total work across five uneven tasks: measured 0.44x
       "speedup" at --jobs 2, i.e. the pool costs more than the sweep. *)
    simple ~parallel:false "game"
      "Theorems 1-2: game dynamics, equilibrium, naive-utility contrast"
      (fun ?pool ~scale:_ ~seed () ->
        Exp_common.render_table (Exp_game.table (Exp_game.run ?pool ~seed ())));
    simple "fig5" "Fig. 4/5: large-scale Internet experiment (synthetic paths)"
      (fun ?pool ~scale ~seed () ->
        Exp_common.render_table
          (Exp_internet.table (Exp_internet.run ?pool ~scale ~seed ())));
    simple "table1" "Table 1: inter-data-center paths over reserved bandwidth"
      (fun ?pool ~scale ~seed () ->
        Exp_common.render_table
          (Exp_interdc.table (Exp_interdc.run ?pool ~scale ~seed ())));
    simple "fig6" "Fig. 6: emulated satellite links"
      (fun ?pool ~scale ~seed () ->
        Exp_common.render_table
          (Exp_satellite.table (Exp_satellite.run ?pool ~scale ~seed ())));
    simple "fig7" "Fig. 7: random loss resilience"
      (fun ?pool ~scale ~seed () ->
        Exp_common.render_table
          (Exp_loss.table (Exp_loss.run ?pool ~scale ~seed ())));
    simple "fig8" "Fig. 8: RTT fairness" (fun ?pool ~scale ~seed () ->
        Exp_common.render_table
          (Exp_rtt_fairness.table (Exp_rtt_fairness.run ?pool ~scale ~seed ())));
    simple "fig9" "Fig. 9: shallow bottleneck buffers"
      (fun ?pool ~scale ~seed () ->
        Exp_common.render_table
          (Exp_buffer.table (Exp_buffer.run ?pool ~scale ~seed ())));
    simple "fig10" "Fig. 10: data-center incast" (fun ?pool ~scale ~seed () ->
        Exp_common.render_table
          (Exp_incast.table (Exp_incast.run ?pool ~scale ~seed ())));
    fig11;
    fig12;
    simple "fig14" "Fig. 14: TCP friendliness vs parallel-TCP selfishness"
      (fun ?pool ~scale ~seed () ->
        Exp_common.render_table
          (Exp_friendliness.table (Exp_friendliness.run ?pool ~scale ~seed ())));
    simple "fig15" "Fig. 15: short-flow completion times"
      (fun ?pool ~scale ~seed () ->
        Exp_common.render_table
          (Exp_fct.table (Exp_fct.run ?pool ~scale ~seed ())));
    simple "fig16" "Fig. 16: stability vs reactiveness trade-off"
      (fun ?pool ~scale ~seed () ->
        Exp_common.render_table
          (Exp_tradeoff.table (Exp_tradeoff.run ?pool ~scale ~seed ())));
    simple "fig17" "Fig. 17: power under FQ with CoDel vs bufferbloat"
      (fun ?pool ~scale ~seed () ->
        Exp_common.render_table
          (Exp_power.table (Exp_power.run ?pool ~scale ~seed ())));
    simple "highloss" "Sec. 4.4.2: loss-resilient utility under 10-50% loss"
      (fun ?pool ~scale ~seed () ->
        Exp_common.render_table
          (Exp_high_loss.table (Exp_high_loss.run ?pool ~scale ~seed ())));
    simple "ablation" "Ablations: confidence-bound loss estimate, MI sizing"
      (fun ?pool ~scale ~seed () ->
        Exp_common.render_table
          (Exp_ablation.table (Exp_ablation.run ?pool ~scale ~seed ())));
    simple "controllers"
      "Controller family: Allegro/Vivace/Proteus/CUBIC head-to-head and \
       scavenger-vs-primary sharing"
      (fun ?pool ~scale ~seed () ->
        let head, phases =
          Exp_controllers.run ?pool ~scale ~seed ()
        in
        Exp_common.render_table (Exp_controllers.table head)
        ^ Exp_common.render_table (Exp_controllers.phase_table phases));
    simple "manyflow" "Scale: 10k-flow fan-in stress (scheduler and pooling)"
      (fun ?pool ~scale ~seed () ->
        Exp_common.render_table
          (Exp_manyflow.table (Exp_manyflow.run ?pool ~scale ~seed ())));
  ]

let find name = List.find_opt (fun e -> e.name = name) all
let names () = List.map (fun e -> e.name) all
