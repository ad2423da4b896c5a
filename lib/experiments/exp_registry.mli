(** The catalogue of paper-reproduction experiments.

    Each entry renders its tables to a string — the same string whether
    the underlying simulations ran sequentially or fanned out over a
    {!Runner} pool, which is what lets callers assert byte-identical
    output across [--jobs] settings. Entries whose figures have
    plottable time series ([fig11], [fig12]) also write CSVs when
    [dump_dir] is given, appending a note line per file to the rendered
    output. *)

type entry = {
  name : string;  (** Short key, e.g. ["fig7"], used by [--only]. *)
  descr : string;
  parallel : bool;
      (** Whether a {!Runner} pool pays for itself on this experiment.
          [false] marks sweeps whose total work is too small to amortize
          the domain fan-out (spawn cost plus multi-domain minor-GC
          coordination) — the bench harness runs those sequentially even
          under [--jobs N] instead of reporting a meaningless slowdown.
          Output is unaffected either way: the registry's determinism
          contract already makes pooled and sequential runs
          byte-identical. *)
  render :
    ?pool:Runner.t ->
    ?dump_dir:string ->
    scale:float ->
    seed:int ->
    unit ->
    string;
      (** Runs the experiment and returns the rendered tables. The
          result is a pure function of [scale] and [seed] (plus
          [dump_dir] note lines) — never of the pool's job count or
          scheduling. Simulations run under {!Runner.run} with the
          [pool]'s settings (default: one worker, no limits): failed
          measurements render as ["n/a"] (or drop their row) and the
          failures land in the process-wide tally ({!Runner.failures})
          instead of raising. *)
}

val all : entry list
(** In the paper's presentation order. *)

val find : string -> entry option
val names : unit -> string list
