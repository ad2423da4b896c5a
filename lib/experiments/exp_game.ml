open Pcc_core

type row = {
  n : int;
  steps : int;
  jain : float;
  total_over_c : float;
  predicted_rate : float;
  mean_rate : float;
  loss_safe : float;
  loss_naive : float;
}

let tasks ?(seed = 42) ?(ns = [ 2; 3; 5; 10; 20 ]) () =
  let c = 100. in
  (* Initial rates for every n are drawn sequentially here, at
     task-construction time, so they depend only on [seed] and [ns]. *)
  let rng = Pcc_sim.Rng.create seed in
  let starts =
    List.map
      (fun n ->
        (* Asymmetric start: rates spread over an order of magnitude. *)
        (n, Array.init n (fun _ -> Pcc_sim.Rng.log_uniform rng (c /. 100.) c)))
      ns
  in
  List.map
    (fun (n, x0) ->
      Exp_common.task ~seed ~label:(Printf.sprintf "game/n=%d" n) (fun () ->
      let eps = 0.01 in
      let x_hat = Game.equilibrium_rate ~n ~c () in
      (* Theorem 2's claim: every sender enters (and stays in) the band
         (x̂(1−ε)², x̂(1+ε)²). We allow 5% slack on the band edges and
         report the first step after which the state never leaves. *)
      let lo = x_hat *. ((1. -. eps) ** 2.) *. 0.95 in
      let hi = x_hat *. ((1. +. eps) ** 2.) *. 1.05 in
      let in_band x = Array.for_all (fun v -> v >= lo && v <= hi) x in
      let max_steps = 5000 in
      let x = ref (Array.copy x0) in
      let entered = ref None in
      for step = 1 to max_steps do
        x := Game.step ~eps ~c !x;
        if in_band !x then begin
          if !entered = None then entered := Some step
        end
        else entered := None
      done;
      let final = !x in
      let steps = match !entered with Some s -> s | None -> max_steps in
      let total = Array.fold_left ( +. ) 0. final in
      let naive_u x i =
        let l = Game.loss ~c x in
        (x.(i) *. (1. -. l)) -. (x.(i) *. l)
      in
      let naive_final, naive_steps = Game.run_with ~u:naive_u (Array.copy x0) in
      (* The fluid model runs no engine, so its work is invisible to
         [Engine.total_executed] unless reported: count one work item
         per sender-rate update so bench event counts stay meaningful. *)
      Pcc_sim.Engine.count_external ((max_steps + naive_steps) * n);
      {
        n;
        steps;
        jain = Pcc_metrics.Stats.jain_index final;
        total_over_c = total /. c;
        predicted_rate = x_hat;
        mean_rate = total /. float_of_int n;
        loss_safe = Game.loss ~c final;
        loss_naive = Game.loss ~c naive_final;
      }))
    starts

let run ?pool ?seed ?ns () =
  Exp_common.present
    (Exp_common.run_tasks_opt ?pool (tasks ?seed ?ns ()))

let table rows =
  Exp_common.
    {
      title =
        "Theorems 1-2 - game dynamics: convergence to the fair equilibrium \
         (C = 100)";
      header =
        [
          "n";
          "steps";
          "Jain";
          "sum/C";
          "x-hat pred";
          "x mean";
          "loss(safe)";
          "loss(T-xL)";
        ];
      rows =
        List.map
          (fun r ->
            [
              string_of_int r.n;
              string_of_int r.steps;
              Printf.sprintf "%.4f" r.jain;
              f3 r.total_over_c;
              f2 r.predicted_rate;
              f2 r.mean_rate;
              f3 r.loss_safe;
              f3 r.loss_naive;
            ])
          rows;
      note =
        Some
          "Theorem 1: sum/C in (1, 20/19=1.053) and Jain = 1; the naive \
           T - x.L utility's equilibrium loss grows toward 50% with n, \
           motivating the sigmoid cut-off.";
    }
