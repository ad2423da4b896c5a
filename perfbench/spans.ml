(* Span accounting for the traced run.

   Every handoff the benchmark wires is wrapped in a span; spans nest on a
   per-task stack, and a layer's self time is its span time minus the time
   of the spans nested inside it. One tracer belongs to one task, and a
   task runs start to finish on one domain, so the tracer needs no
   synchronisation. Entering and leaving a span allocates nothing. *)

let sim = 0 (* Engine.run: scheduler, dispatch, and unwrapped callbacks *)
let link = 1 (* Link.send: queue discipline and serialisation start *)
let delay_line = 2 (* Delay_line.send *)
let receiver = 3 (* Receiver.on_packet *)
let ack_pcc = 4 (* Sender.handle_ack of a PCC sender *)
let ack_tcp = 5 (* Sender.handle_ack of a TCP sender *)
let sender_out = 6 (* the sender's [out] callback *)
let layers = 7
let max_depth = 32

type t = {
  engine : Pcc_sim.Engine.t;
  mutable depth : int;
  start : float array;  (* per stack level *)
  child : float array;  (* time covered by nested spans, per stack level *)
  self : float array;  (* per layer *)
  calls : int array;  (* per layer *)
  mutable peak_pending : int;
}

let create engine =
  {
    engine;
    depth = 0;
    start = Array.make max_depth 0.;
    child = Array.make max_depth 0.;
    self = Array.make layers 0.;
    calls = Array.make layers 0;
    peak_pending = 0;
  }

let enter t layer =
  let d = t.depth + 1 in
  t.depth <- d;
  t.child.(d) <- 0.;
  t.calls.(layer) <- t.calls.(layer) + 1;
  let p = Pcc_sim.Engine.pending t.engine in
  if p > t.peak_pending then t.peak_pending <- p;
  t.start.(d) <- Host.now ()

let leave t layer =
  let stop = Host.now () in
  let d = t.depth in
  let dur = stop -. t.start.(d) in
  t.self.(layer) <- t.self.(layer) +. dur -. t.child.(d);
  t.depth <- d - 1;
  t.child.(d - 1) <- t.child.(d - 1) +. dur

let wrap t layer f x =
  enter t layer;
  f x;
  leave t layer

(* Per-layer totals over many tasks. *)
type totals = {
  t_self : float array;
  t_calls : int array;
  mutable t_peak_pending : int;
}

let totals () =
  {
    t_self = Array.make layers 0.;
    t_calls = Array.make layers 0;
    t_peak_pending = 0;
  }

let add acc t =
  for l = 0 to layers - 1 do
    acc.t_self.(l) <- acc.t_self.(l) +. t.self.(l);
    acc.t_calls.(l) <- acc.t_calls.(l) + t.calls.(l)
  done;
  acc.t_peak_pending <- max acc.t_peak_pending t.peak_pending
