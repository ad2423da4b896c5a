open Pcc_sim
open Pcc_scenario

type row = {
  loss : float;
  pcc : float;
  cubic : float;
  illinois : float;
  newreno : float;
}

let default_losses = [ 0.0; 0.001; 0.005; 0.01; 0.02; 0.03; 0.04; 0.05; 0.06 ]

let specs () =
  [
    ("pcc", Transport.pcc ());
    ("cubic", Transport.tcp "cubic");
    ("illinois", Transport.tcp "illinois");
    ("newreno", Transport.tcp "newreno");
  ]

(* One task per (loss, protocol) pair; the measurement is a pure function
   of the parameters captured at construction time. *)
let tasks ?(scale = 1.) ?(seed = 42) ?(losses = default_losses) () =
  let bandwidth = Units.mbps 100. and rtt = 0.03 in
  let buffer = Units.bdp_bytes ~rate:bandwidth ~rtt in
  let duration = 60. *. scale in
  List.concat_map
    (fun loss ->
      List.map
        (fun (name, spec) ->
          Exp_common.task ~seed
            ~label:(Printf.sprintf "fig7/%s/loss=%g" name loss)
            (fun () ->
              ( loss,
                Exp_common.solo_throughput ~seed ~bandwidth ~rtt ~buffer
                  ~duration ~loss ~rev_loss:loss spec )))
        (specs ()))
    losses

(* Partial inputs: a failed measurement leaves NaN in its cell (rendered
   "n/a"); a loss point where every protocol failed is dropped. *)
let collect results =
  let v = function Some (_, x) -> x | None -> Float.nan in
  List.filter_map
    (function
      | [ p; c; i; n ] as group -> (
        match Exp_common.present group with
        | [] -> None
        | (loss, _) :: _ ->
          Some { loss; pcc = v p; cubic = v c; illinois = v i; newreno = v n })
      | _ -> invalid_arg "Exp_loss.collect: 4 measurements per loss point")
    (Exp_common.chunk (List.length (specs ())) results)

let run ?pool ?scale ?seed ?losses () =
  collect (Exp_common.run_tasks_opt ?pool (tasks ?scale ?seed ?losses ()))

let table rows =
  Exp_common.
    {
      title = "Fig. 7 - throughput vs random loss (100 Mbps, 30 ms RTT; Mbps)";
      header =
        [ "loss%"; "PCC"; "CUBIC"; "Illinois"; "NewReno"; "PCC/CUBIC" ];
      rows =
        List.map
          (fun r ->
            [
              f2 (r.loss *. 100.);
              mbps r.pcc;
              mbps r.cubic;
              mbps r.illinois;
              mbps r.newreno;
              f1 (ratio r.pcc r.cubic);
            ])
          rows;
      note =
        Some
          "Paper: PCC >95% capacity to 1% loss, graceful to 2%, collapse by \
           6% (5% utility cap); CUBIC 10x below PCC at 0.1%.";
    }
