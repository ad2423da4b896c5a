open Pcc_sim
open Pcc_scenario

type row = {
  name : string;
  rtt : float;
  pcc : float;
  sabul : float;
  cubic : float;
  illinois : float;
}

let pairs =
  [
    ("GPO->NYSERNet", 0.0121);
    ("GPO->Missouri", 0.0465);
    ("GPO->Illinois", 0.0354);
    ("NYSERNet->Missouri", 0.0474);
    ("Wisconsin->Illinois", 0.00901);
    ("GPO->Wisc.", 0.0380);
    ("NYSERNet->Wisc.", 0.0383);
    ("Missouri->Wisc.", 0.0209);
    ("NYSERNet->Illinois", 0.0361);
  ]

let specs () =
  [
    ("pcc", Transport.pcc ());
    ("sabul", Transport.sabul);
    ("cubic", Transport.tcp "cubic");
    ("illinois", Transport.tcp "illinois");
  ]

let tasks ?(scale = 1.) ?(seed = 42) () =
  let bandwidth = Units.mbps 800. in
  (* The bandwidth reservation's rate limiter: a shallow, 64-packet
     buffer, far below the BDP of every pair. *)
  let buffer = 64 * Units.mss in
  let duration = 100. *. scale in
  List.concat_map
    (fun (name, rtt) ->
      List.map
        (fun (proto, spec) ->
          Exp_common.task ~seed
            ~label:(Printf.sprintf "table1/%s/%s" proto name)
            (fun () ->
              Exp_common.solo_throughput ~seed ~bandwidth ~rtt ~buffer
                ~duration ~loss:0.0001 spec))
        (specs ()))
    pairs

let collect results =
  let v = Exp_common.value_or_nan in
  List.map2
    (fun (name, rtt) -> function
      | [ pcc; sabul; cubic; illinois ] ->
        {
          name;
          rtt;
          pcc = v pcc;
          sabul = v sabul;
          cubic = v cubic;
          illinois = v illinois;
        }
      | _ -> invalid_arg "Exp_interdc.collect: 4 measurements per pair")
    pairs
    (Exp_common.chunk (List.length (specs ())) results)

let run ?pool ?scale ?seed () =
  collect (Exp_common.run_tasks_opt ?pool (tasks ?scale ?seed ()))

let table rows =
  let avg f =
    List.fold_left (fun acc r -> acc +. f r) 0. rows
    /. float_of_int (max 1 (List.length rows))
  in
  Exp_common.
    {
      title = "Table 1 - inter-data-center paths (800 Mbps reserved; Mbps)";
      header = [ "pair"; "RTT ms"; "PCC"; "SABUL"; "CUBIC"; "Illinois" ];
      rows =
        List.map
          (fun r ->
            [
              r.name;
              f1 (r.rtt *. 1e3);
              mbps r.pcc;
              mbps r.sabul;
              mbps r.cubic;
              mbps r.illinois;
            ])
          rows
        @ [
            [
              "average";
              "";
              mbps (avg (fun r -> r.pcc));
              mbps (avg (fun r -> r.sabul));
              mbps (avg (fun r -> r.cubic));
              mbps (avg (fun r -> r.illinois));
            ];
          ];
      note =
        Some
          "Paper: PCC 624-818 Mbps on every pair; 5.2x Illinois on \
           average; SABUL within ~15% of PCC.";
    }
