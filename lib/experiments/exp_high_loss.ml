open Pcc_sim
open Pcc_scenario

type row = {
  loss : float;
  achievable : float;
  pcc_resilient : float;
  pcc_safe : float;
  cubic : float;
}

let bandwidth = Units.mbps 100.

let specs () =
  let resilient =
    Transport.pcc
      ~config:
        (Pcc_core.Pcc_sender.config_with
           ~utility:(Pcc_core.Utility.loss_resilient ())
           ())
      ()
  in
  [
    ("pcc-resilient", resilient);
    ("pcc-safe", Transport.pcc ());
    ("cubic", Transport.tcp "cubic");
  ]

let tasks ?(scale = 1.) ?(seed = 42) ?(losses = [ 0.1; 0.2; 0.3; 0.4; 0.5 ])
    () =
  let rtt = 0.03 in
  let buffer = Units.bdp_bytes ~rate:bandwidth ~rtt in
  let duration = 100. *. scale in
  List.concat_map
    (fun loss ->
      List.map
        (fun (name, spec) ->
          Exp_common.task ~seed
            ~label:(Printf.sprintf "highloss/%s/loss=%g" name loss)
            (fun () ->
              ( loss,
                Exp_common.solo_throughput ~seed ~bandwidth ~rtt ~buffer
                  ~duration ~loss
                  ~queue:(Path.Fq Path.Droptail) spec )))
        (specs ()))
    losses

let collect results =
  let v = function Some (_, x) -> x | None -> Float.nan in
  List.filter_map
    (function
      | [ r; s; c ] as group -> (
        match Exp_common.present group with
        | [] -> None
        | (loss, _) :: _ ->
          Some
            {
              loss;
              achievable = bandwidth *. (1. -. loss);
              pcc_resilient = v r;
              pcc_safe = v s;
              cubic = v c;
            })
      | _ -> invalid_arg "Exp_high_loss.collect: 3 measurements per loss")
    (Exp_common.chunk (List.length (specs ())) results)

let run ?pool ?scale ?seed ?losses () =
  collect (Exp_common.run_tasks_opt ?pool (tasks ?scale ?seed ?losses ()))

let table rows =
  Exp_common.
    {
      title =
        "Sec. 4.4.2 - excessive random loss with the loss-resilient \
         utility (100 Mbps, 30 ms, FQ; Mbps)";
      header =
        [
          "loss%";
          "achievable";
          "PCC T(1-L)";
          "% of achievable";
          "PCC safe";
          "CUBIC";
        ];
      rows =
        List.map
          (fun r ->
            [
              Printf.sprintf "%.0f" (r.loss *. 100.);
              mbps r.achievable;
              mbps r.pcc_resilient;
              Printf.sprintf "%.0f%%"
                (100. *. ratio r.pcc_resilient r.achievable);
              mbps r.pcc_safe;
              mbps r.cubic;
            ])
          rows;
      note =
        Some
          "Paper: loss-resilient PCC within 97% of achievable even at 50% \
           loss; 151x CUBIC at 10% loss. The safe utility collapses past \
           its 5% cap, as designed.";
    }
