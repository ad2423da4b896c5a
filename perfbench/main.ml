(* perfbench: the simulator benchmark.

     main.exe --workload NAME|all --seed N --seconds S --trace 0|1
     main.exe --print-digests

   For each workload it prints human-readable results, then one JSON line
   with the keys correct, attempted, failed and metrics. With [all] the
   workloads run in turn, each with its own report. *)

open Perfbench

let () =
  let workload = ref "" and seed = ref Bench.default_seed in
  let seconds = ref 10. and trace = ref 0 and digests = ref false in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME all, or one of: "
        ^ String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all)
      );
      ("--seed", Arg.Set_int seed, "N input seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S time budget for measured passes");
      ("--trace", Arg.Set_int trace, "0|1 1 runs the traced per-layer run");
      ( "--print-digests",
        Arg.Set digests,
        " print the digests module for the default seed and size" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !digests then Bench.print_digests ()
  else begin
    let chosen =
      if !workload = "all" then Workloads.all
      else
        match Workloads.find !workload with
        | Some w -> [ w ]
        | None ->
          prerr_endline ("perfbench: unknown workload " ^ !workload);
          exit 2
    in
    if !trace <> 0 && !trace <> 1 then begin
      prerr_endline "perfbench: --trace takes 0 or 1";
      exit 2
    end;
    List.iter
      (fun w ->
        let size = Workloads.default_size in
        let report =
          if !trace = 1 then Bench.traced w ~seed:!seed ~size
          else Bench.measure w ~seed:!seed ~seconds:!seconds ~size
        in
        List.iter print_endline report.Bench.lines;
        print_endline (Bench.json_of_report report))
      chosen
  end
