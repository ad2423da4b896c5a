open Pcc_sim

type vivace_config = {
  viv_eps : float;
  theta : float;
  amp_max : int;
  omega0 : float;
  omega_delta : float;
  omega_max : float;
}

let default_vivace =
  {
    viv_eps = 0.05;
    theta = 1.0;
    amp_max = 30;
    omega0 = 0.05;
    omega_delta = 0.1;
    omega_max = 0.5;
  }

type algorithm = Allegro | Vivace of vivace_config

type config = {
  eps_min : float;
  eps_max : float;
  rct : bool;
  init_rate : float;
  min_rate : float;
  max_rate : float;
  algorithm : algorithm;
}

let default_config =
  {
    eps_min = 0.01;
    eps_max = 0.05;
    rct = true;
    init_rate = 2. *. float_of_int (Units.mss * 8) /. 0.05;
    min_rate = Units.kbps 50.;
    max_rate = Units.gbps 20.;
    algorithm = Allegro;
  }

type phase = Starting | Decision | Adjusting

type pair = {
  up_first : bool;
  mutable up_u : float option;
  mutable down_u : float option;
}

(* What a given MI was planned to test. Tagged with the phase epoch so
   results from MIs planned before a phase change are discarded. *)
type role =
  | R_start
  | R_trial of { pair : int; up : bool }
  | R_wait
  | R_adjust of { step : int; prev_rate : float }

type t = {
  cfg : config;
  rng : Rng.t;
  mutable base : float;  (* current base rate, bps *)
  mutable ph : phase;
  mutable tag : int;  (* phase epoch *)
  (* (tag, role) per MI whose result may still come, indexed by MI id
     minus [released], the id after the last result. *)
  mutable plan : (int * role) option array;
  mutable released : int;
  mutable notify : float -> unit;
  mutable trace_id : int;  (* flow id for trace records *)
  mutable trace_now : unit -> float;  (* clock for trace timestamps *)
  mutable eps : float;
  mutable decisions : int;
  (* Starting state *)
  mutable start_prev_u : float option;
  mutable start_best : (float * float) option;  (* best (rate, u) so far *)
  mutable start_falls : int;  (* consecutive utility falls *)
  mutable doubled : bool;  (* whether rate_for_mi already issued MI 0 *)
  (* Decision state *)
  mutable pairs : pair array;
  mutable assigned : int;
  (* Adjusting state *)
  mutable dir : float;
  mutable adj_step : int;
  mutable adj_confirmed : int;  (* steps whose results came back good *)
  mutable adj_falls : int;  (* consecutive utility falls at current step *)
  mutable adj_planned_rate : float;  (* rate of the last planned step *)
  mutable adj_prev : (float * float) option;  (* last accepted (rate, u) *)
  (* Vivace state *)
  mutable viv_dir : int;  (* −1 / 0 (no step yet) / +1 *)
  mutable viv_amp : int;  (* confidence amplifier m *)
  mutable viv_omega : float;  (* dynamic change boundary ω *)
  (* Utility bookkeeping (all delivered results) *)
  mutable util_sum : float;
  mutable util_count : int;
  mutable gradient_steps : int;
}

let create ?(config = default_config) ~rng () =
  {
    cfg = config;
    rng;
    base = Float.max config.min_rate config.init_rate;
    ph = Starting;
    tag = 0;
    plan = Array.make 4 None;
    released = 0;
    notify = (fun _ -> ());
    trace_id = -1;
    trace_now = (fun () -> 0.);
    eps =
      (* Vivace probes at a fixed ±ε; Allegro's granularity escalation
         never touches it because decide is bypassed. *)
      (match config.algorithm with
      | Allegro -> config.eps_min
      | Vivace vc -> vc.viv_eps);
    decisions = 0;
    start_prev_u = None;
    start_best = None;
    start_falls = 0;
    doubled = false;
    pairs = [||];
    assigned = 0;
    dir = 1.;
    adj_step = 0;
    adj_confirmed = 0;
    adj_falls = 0;
    adj_planned_rate = 0.;
    adj_prev = None;
    viv_dir = 0;
    viv_amp = 1;
    viv_omega =
      (match config.algorithm with
      | Allegro -> 0.
      | Vivace vc -> vc.omega0);
    util_sum = 0.;
    util_count = 0;
    gradient_steps = 0;
  }

let set_plan t id role =
  let i = id - t.released in
  if i >= Array.length t.plan then
    t.plan <- Array.append t.plan (Array.make (i + 1) None);
  if i >= 0 then t.plan.(i) <- Some (t.tag, role)

(* Results arrive in id order and a discarded MI never returns one, so
   the plans of every id up to [id] are dropped here. *)
let take_plan t id =
  let i = id - t.released and n = Array.length t.plan in
  let found = if i >= 0 && i < n then t.plan.(i) else None in
  let k = Int.max 0 (Int.min n (i + 1)) in
  Array.blit t.plan k t.plan 0 (n - k);
  Array.fill t.plan (n - k) k None;
  t.released <- Int.max t.released (id + 1);
  found

let planned t =
  Array.fold_left (fun n p -> if Option.is_some p then n + 1 else n) 0 t.plan

let rate t = t.base
let phase t = t.ph
let eps t = t.eps
let decisions t = t.decisions
let gradient_steps t = t.gradient_steps

let mean_utility t =
  if t.util_count = 0 then 0. else t.util_sum /. float_of_int t.util_count

let on_rate_change t f = t.notify <- f

let set_trace t ~id ~now =
  t.trace_id <- id;
  t.trace_now <- now

let clamp t r = Float.max t.cfg.min_rate (Float.min t.cfg.max_rate r)

let set_base t r =
  let r = clamp t r in
  if r <> t.base then begin
    let prev = t.base in
    t.base <- r;
    if Pcc_trace.Collector.enabled () then begin
      let phase =
        match t.ph with Starting -> 0 | Decision -> 1 | Adjusting -> 2
      in
      let step = match t.ph with Adjusting -> t.adj_step | _ -> 0 in
      Pcc_trace.Collector.emit Pcc_trace.Event.Rate_change
        ~time:(t.trace_now ()) ~id:t.trace_id ~a:r ~b:prev
        ~i:(Pcc_trace.Event.pack_rate_info ~phase ~step)
    end;
    t.notify r
  end

let npairs t =
  match t.cfg.algorithm with
  | Vivace _ -> 1 (* one ±ε probe pair per gradient step *)
  | Allegro -> if t.cfg.rct then 2 else 1

let enter_decision t =
  t.ph <- Decision;
  t.tag <- t.tag + 1;
  t.pairs <-
    Array.init (npairs t) (fun _ ->
        { up_first = Rng.bool t.rng; up_u = None; down_u = None });
  t.assigned <- 0

(* Starting always hands off to the probing state; which decision logic
   runs on the probe results depends on the algorithm. *)
let exit_starting t =
  t.eps <-
    (match t.cfg.algorithm with
    | Allegro -> t.cfg.eps_min
    | Vivace vc -> vc.viv_eps);
  enter_decision t

let enter_adjusting t ~dir ~first:(rate0, u0) =
  (* rate0 was already tested by the winning trials, so the first step of
     the ladder starts one ε beyond it. *)
  t.ph <- Adjusting;
  t.tag <- t.tag + 1;
  t.dir <- dir;
  t.adj_step <- 1;
  t.adj_confirmed <- 0;
  t.adj_falls <- 0;
  t.adj_planned_rate <- clamp t (rate0 *. (1. +. (t.cfg.eps_min *. dir)));
  t.adj_prev <- Some (rate0, u0)

let rate_for_mi t ~id =
  let tagged role = set_plan t id role in
  match t.ph with
  | Starting ->
    let r =
      if not t.doubled then begin
        t.doubled <- true;
        t.base
      end
      else begin
        t.base <- clamp t (t.base *. 2.);
        t.base
      end
    in
    tagged R_start;
    r
  | Decision ->
    let total = 2 * npairs t in
    if t.assigned < total then begin
      let a = t.assigned in
      t.assigned <- a + 1;
      let pair = a / 2 in
      let first_of_pair = a mod 2 = 0 in
      let up = if first_of_pair then t.pairs.(pair).up_first
               else not t.pairs.(pair).up_first in
      tagged (R_trial { pair; up });
      let f = if up then 1. +. t.eps else 1. -. t.eps in
      clamp t (t.base *. f)
    end
    else begin
      (* All trials emitted: hold the base rate while results return. *)
      tagged R_wait;
      t.base
    end
  | Adjusting ->
    (* Rate advances are result-clocked (§3.1's re-alignment): every MI in
       this phase sends at the current step's rate; the step only moves
       when the step's first utility result arrives (see on_result). *)
    let prev_rate =
      match t.adj_prev with Some (r, _) -> r | None -> t.adj_planned_rate
    in
    tagged (R_adjust { step = t.adj_step; prev_rate });
    t.adj_planned_rate

let decide t =
  let ups = Array.for_all (fun p -> p.up_u > p.down_u) t.pairs in
  let downs = Array.for_all (fun p -> p.up_u < p.down_u) t.pairs in
  t.decisions <- t.decisions + 1;
  let avg f =
    Array.fold_left (fun acc p -> acc +. f p) 0. t.pairs
    /. float_of_int (Array.length t.pairs)
  in
  let get o = match o with Some v -> v | None -> 0. in
  if ups then begin
    let r = clamp t (t.base *. (1. +. t.eps)) in
    let u = avg (fun p -> get p.up_u) in
    enter_adjusting t ~dir:1. ~first:(r, u);
    t.eps <- t.cfg.eps_min;
    set_base t t.adj_planned_rate
  end
  else if downs then begin
    let r = clamp t (t.base *. (1. -. t.eps)) in
    let u = avg (fun p -> get p.down_u) in
    enter_adjusting t ~dir:(-1.) ~first:(r, u);
    t.eps <- t.cfg.eps_min;
    set_base t t.adj_planned_rate
  end
  else begin
    (* Inconclusive: stay put, look harder. *)
    t.eps <- Float.min t.cfg.eps_max (t.eps +. t.cfg.eps_min);
    enter_decision t
  end

(* Vivace's gradient-ascent update (NSDI 2018 §4): finish one ±ε probe
   pair, estimate the utility gradient, take a step θ·m·γ whose size is
   amplified by m consecutive same-direction steps and clamped to the
   dynamic change boundary ±ω·base; ω inflates while the clamp binds and
   collapses back to ω₀ the moment the gradient flips or fits. *)
let vivace_decide t vc =
  t.decisions <- t.decisions + 1;
  let p = t.pairs.(0) in
  let get o = match o with Some v -> v | None -> 0. in
  let u_plus = get p.up_u and u_minus = get p.down_u in
  let base_mbps = Float.max 1e-9 (t.base /. 1e6) in
  let gamma = (u_plus -. u_minus) /. (2. *. vc.viv_eps *. base_mbps) in
  if gamma = 0. then begin
    (* A flat gradient carries no direction: forget momentum, re-probe. *)
    t.viv_dir <- 0;
    t.viv_amp <- 1;
    t.viv_omega <- vc.omega0;
    enter_decision t
  end
  else begin
    let up = gamma > 0. in
    let dir = if up then 1 else -1 in
    if t.viv_dir = dir then
      t.viv_amp <- min vc.amp_max (t.viv_amp + 1)
    else begin
      t.viv_amp <- 1;
      t.viv_omega <- vc.omega0
    end;
    t.viv_dir <- dir;
    let step_mbps = vc.theta *. float_of_int t.viv_amp *. gamma in
    let bound_mbps = t.viv_omega *. base_mbps in
    let clamped = Float.abs step_mbps > bound_mbps in
    let step_mbps =
      if clamped then Float.copy_sign bound_mbps step_mbps else step_mbps
    in
    if clamped then
      t.viv_omega <- Float.min vc.omega_max (t.viv_omega +. vc.omega_delta)
    else t.viv_omega <- vc.omega0;
    let next = clamp t (t.base +. (step_mbps *. 1e6)) in
    t.gradient_steps <- t.gradient_steps + 1;
    if Pcc_trace.Collector.enabled () then
      Pcc_trace.Collector.emit Pcc_trace.Event.Gradient_step
        ~time:(t.trace_now ()) ~id:t.trace_id ~a:gamma ~b:next
        ~i:
          (Pcc_trace.Event.pack_gradient_info ~up ~clamped ~amp:t.viv_amp);
    enter_decision t;
    set_base t next
  end

let on_result t (r : Monitor.result) =
  t.util_sum <- t.util_sum +. r.Monitor.utility;
  t.util_count <- t.util_count + 1;
  match take_plan t r.Monitor.id with
  | None -> ()
  | Some (tag, role) ->
    if tag = t.tag then begin
      match role with
      | R_start -> (
        (* Track the best (rate, utility) seen while doubling. As in the
           adjusting state, one noisy MI (a competitor's transient burst)
           should not end the startup: exit on two consecutive utility
           falls, reverting to the best rate observed. *)
        (match t.start_best with
        | Some (_, bu) when r.Monitor.utility <= bu -> ()
        | Some _ | None ->
          t.start_best <- Some (r.Monitor.rate, r.Monitor.utility));
        match t.start_prev_u with
        | Some prev when r.Monitor.utility < prev ->
          t.start_falls <- t.start_falls + 1;
          t.start_prev_u <- Some r.Monitor.utility;
          if t.start_falls >= 2 then begin
            exit_starting t;
            match t.start_best with
            | Some (br, _) -> set_base t br
            | None -> set_base t (r.Monitor.rate /. 2.)
          end
        | Some _ | None ->
          t.start_falls <- 0;
          t.start_prev_u <- Some r.Monitor.utility)
      | R_wait -> ()
      | R_trial { pair; up } ->
        let p = t.pairs.(pair) in
        if up then p.up_u <- Some r.Monitor.utility
        else p.down_u <- Some r.Monitor.utility;
        if
          Array.for_all
            (fun p -> p.up_u <> None && p.down_u <> None)
            t.pairs
        then begin
          match t.cfg.algorithm with
          | Vivace vc -> vivace_decide t vc
          | Allegro -> decide t
        end
      | R_adjust { step; prev_rate } ->
        (* Only the current step's first result drives the ladder; later
           results for an already-decided step are stale. *)
        if step = t.adj_step then begin
          match t.adj_prev with
          | Some (_, prev_u) when r.Monitor.utility < prev_u ->
            (* Utility fell while accelerating. A single noisy MI (one
               unlucky loss) should not abort the climb — the RCT
               principle applied to this state — so hold the rate and
               revert only on a second consecutive fall. *)
            t.adj_falls <- t.adj_falls + 1;
            if t.adj_falls >= 2 then begin
              t.eps <- t.cfg.eps_min;
              enter_decision t;
              set_base t prev_rate
            end
          | Some _ | None ->
            t.adj_falls <- 0;
            t.adj_confirmed <- t.adj_confirmed + 1;
            t.adj_prev <- Some (r.Monitor.rate, r.Monitor.utility);
            t.adj_step <- t.adj_step + 1;
            let factor =
              1. +. (float_of_int t.adj_step *. t.cfg.eps_min *. t.dir)
            in
            t.adj_planned_rate <-
              clamp t (r.Monitor.rate *. Float.max 0.05 factor);
            set_base t t.adj_planned_rate
        end
    end
