open Pcc_sim
open Pcc_scenario

type pair_result = {
  params : Internet_model.params;
  pcc : float;
  cubic : float;
  sabul : float;
  pcp : float;
}

type summary = {
  baseline : string;
  median_ratio : float;
  p25 : float;
  p75 : float;
  p90 : float;
  frac_ge_10x : float;
}

let specs () =
  [
    ("pcc", Transport.pcc ());
    ("cubic", Transport.tcp "cubic");
    ("sabul", Transport.sabul);
    ("pcp", Transport.pcp);
  ]

let tasks ?(scale = 1.) ?(seed = 42) ?(pairs = 40) () =
  let duration = 60. *. scale in
  (* Paths are drawn sequentially at task-construction time so the path
     set depends only on [seed] and [pairs], never on which domain runs
     which measurement. *)
  let path_rng = Rng.create seed in
  let drawn =
    List.init pairs (fun i ->
        (i, Internet_model.random path_rng, seed + (1000 * (i + 1))))
  in
  List.concat_map
    (fun (i, params, run_seed) ->
      List.map
        (fun (name, spec) ->
          Exp_common.task ~seed:run_seed
            ~label:(Printf.sprintf "internet/pair%02d/%s" i name)
            (fun () ->
              ( params,
                Internet_model.measure ~duration ~seed:run_seed params spec )))
        (specs ()))
    drawn

let collect results =
  let v = function Some (_, x) -> x | None -> Float.nan in
  List.filter_map
    (function
      | [ p; c; s; q ] as group -> (
        match Exp_common.present group with
        | [] -> None
        | (params, _) :: _ ->
          Some { params; pcc = v p; cubic = v c; sabul = v s; pcp = v q })
      | _ -> invalid_arg "Exp_internet.collect: 4 measurements per pair")
    (Exp_common.chunk (List.length (specs ())) results)

let run ?pool ?scale ?seed ?pairs () =
  collect (Exp_common.run_tasks_opt ?pool (tasks ?scale ?seed ?pairs ()))

let summarize results =
  let mk baseline extract =
    let ratios =
      Array.of_list
        (List.map (fun r -> Exp_common.ratio r.pcc (extract r)) results)
    in
    let finite = Array.map (fun v -> Float.min v 1e4) ratios in
    {
      baseline;
      median_ratio = Pcc_metrics.Stats.median finite;
      p25 = Pcc_metrics.Stats.percentile finite 25.;
      p75 = Pcc_metrics.Stats.percentile finite 75.;
      p90 = Pcc_metrics.Stats.percentile finite 90.;
      frac_ge_10x =
        (let n = Array.length finite in
         if n = 0 then 0.
         else
           float_of_int
             (Array.fold_left (fun acc v -> if v >= 10. then acc + 1 else acc) 0 finite)
           /. float_of_int n);
    }
  in
  [
    mk "TCP CUBIC" (fun r -> r.cubic);
    mk "SABUL" (fun r -> r.sabul);
    mk "PCP" (fun r -> r.pcp);
  ]

let table results =
  let summaries = summarize results in
  Exp_common.
    {
      title =
        Printf.sprintf
          "Fig. 5 - Internet experiment: PCC throughput ratio over baseline \
           (%d synthetic paths)"
          (List.length results);
      header =
        [ "baseline"; "p25"; "median"; "p75"; "p90"; ">=10x" ];
      rows =
        List.map
          (fun s ->
            [
              s.baseline;
              f2 s.p25;
              f2 s.median_ratio;
              f2 s.p75;
              f2 s.p90;
              Printf.sprintf "%.0f%%" (s.frac_ge_10x *. 100.);
            ])
          summaries;
      note =
        Some
          "Paper: vs CUBIC median 5.52x, >=10x on 41% of pairs; vs SABUL \
           1.41x median; vs PCP 4.58x median.";
    }
