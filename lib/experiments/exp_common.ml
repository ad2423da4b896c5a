open Pcc_sim
open Pcc_scenario

type table = {
  title : string;
  header : string list;
  rows : string list list;
  note : string option;
}

let render_table t =
  let all = t.header :: t.rows in
  let ncols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let width c =
    List.fold_left
      (fun acc row ->
        match List.nth_opt row c with
        | Some cell -> max acc (String.length cell)
        | None -> acc)
      0 all
  in
  let widths = List.init ncols width in
  let render row =
    String.concat "  "
      (List.mapi
         (fun i cell ->
           let w = List.nth widths i in
           let pad = w - String.length cell in
           if i = 0 then cell ^ String.make pad ' '
           else String.make pad ' ' ^ cell)
         row)
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "\n== %s ==\n" t.title);
  Buffer.add_string buf (render t.header);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (String.make (String.length (render t.header)) '-');
  Buffer.add_char buf '\n';
  List.iter
    (fun r ->
      Buffer.add_string buf (render r);
      Buffer.add_char buf '\n')
    t.rows;
  (match t.note with
  | Some n ->
    Buffer.add_string buf n;
    Buffer.add_char buf '\n'
  | None -> ());
  Buffer.contents buf

let print_table t =
  print_string (render_table t);
  flush stdout

(* ------------------------------------------------------------------ *)
(* Task plumbing: every experiment describes its independent simulation
   runs as a list of tasks, executed on a Runner executor. Results always
   come back in task order, so [collect] functions may rely on
   position. *)

module Task = struct
  type 'a t = 'a Runner.task = {
    label : string;
    seed : int option;
    repro : string option;
    run : unit -> 'a;
  }
end

type 'a task = 'a Task.t

let task ?(label = "") ?seed ?repro run = { Task.label; seed; repro; run }

let task_label (t : _ task) = t.Task.label

let run_tasks ?pool tasks =
  match pool with
  | Some p -> Runner.map_list p (fun t -> t.Task.run ()) tasks
  | None -> List.map (fun t -> t.Task.run ()) tasks

(* Failures yield [None] slots (and land in the Runner's report and
   tally) instead of tearing down the sweep. *)
let run_tasks_opt ?(pool = Runner.create ~jobs:1 ()) tasks =
  fst (Runner.run pool tasks)

let value_or_nan = function Some v -> v | None -> Float.nan
let present l = List.filter_map Fun.id l

let chunk n l =
  if n <= 0 then invalid_arg "Exp_common.chunk";
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if k = n then go (List.rev cur :: acc) [ x ] 1 rest
      else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 l

let group_by key l =
  List.fold_left
    (fun acc x ->
      let k = key x in
      match List.assoc_opt k acc with
      | Some _ ->
        List.map
          (fun (k', xs') -> if k' = k then (k, x :: xs') else (k', xs'))
          acc
      | None -> acc @ [ (k, [ x ]) ])
    [] l
  |> List.map (fun (k, xs) -> (k, List.rev xs))

(* Formatters render NaN as "n/a": under supervised execution a failed
   task leaves NaN in its row's cells, and the table must still print. *)
let fmt_or_na f v = if Float.is_nan v then "n/a" else f v
let f1 = fmt_or_na (Printf.sprintf "%.1f")
let f2 = fmt_or_na (Printf.sprintf "%.2f")
let f3 = fmt_or_na (Printf.sprintf "%.3f")
let mbps = fmt_or_na (fun v -> Printf.sprintf "%.2f" (v /. 1e6))

let ratio a b =
  if Float.is_nan a || Float.is_nan b then Float.nan
  else if Float.abs b < 1e-9 then infinity
  else a /. b

let goodput_between engine flow ~t0 ~t1 =
  Engine.run ~until:t0 engine;
  let b0 = Topology.goodput_bytes flow in
  Engine.run ~until:t1 engine;
  let b1 = Topology.goodput_bytes flow in
  float_of_int ((b1 - b0) * 8) /. (t1 -. t0)

(* Builds the dumbbell on the graph layer directly; the link/flow specs
   mirror what Path.build would produce, so seeded results are identical
   with the pre-graph implementation. *)
let solo_throughput ?(seed = 42) ?warmup ?(queue = Topology.Droptail)
    ?(loss = 0.) ?(rev_loss = 0.) ?(jitter = 0.) ~bandwidth ~rtt ~buffer
    ~duration spec =
  let warmup =
    match warmup with Some w -> w | None -> Float.max 3. (20. *. rtt)
  in
  let engine = Engine.create () in
  let rng = Rng.create seed in
  let topo =
    Topology.build engine ~rng
      ~links:
        [
          Topology.link ~name:"bottleneck" ~delay:(rtt /. 2.) ~buffer ~queue
            ~loss ~jitter ~src:0 ~dst:1 ~bandwidth ();
        ]
      ~rev_loss
      ~flows:[ Topology.flow ~route:[ 0; 1 ] spec ]
      ()
  in
  goodput_between engine (Topology.flows topo).(0) ~t0:warmup
    ~t1:(warmup +. duration)
