(** The catalogue of paper-reproduction experiments.

    Each entry carries its experiment's typed result: a [run] that
    returns it, the [tables] that present it and the [series] files that
    plot it. {!run} is the one place that turns a result into text,
    and that text is the same whether the simulations ran sequentially
    or fanned out over a {!Runner} pool, which is what lets callers
    assert byte-identical output across [--jobs] settings. *)

type series = string * (string * (float * float) array) list
(** A CSV file name and its named (time, value) series, written by
    {!Pcc_metrics.Series_io.write_multi_series}. *)

type exp =
  | Exp : {
      run : ?pool:Runner.t -> scale:float -> seed:int -> unit -> 'r;
          (** Runs the simulations once. The result is a pure function
              of [scale] and [seed], never of the pool's job count or
              scheduling. Simulations run under {!Runner.run} with the
              [pool]'s settings (default: one worker, no limits): failed
              measurements render as ["n/a"] (or drop their row) and the
              failures land in the process-wide tally
              ({!Runner.failures}) instead of raising. *)
      tables : 'r -> Exp_common.table list;
      series : 'r -> series list;
          (** Empty except for the figures with plottable time series
              ([fig11], [fig12]). *)
    }
      -> exp

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
  exp : exp;
}

val run :
  ?pool:Runner.t -> scale:float -> seed:int -> entry -> string * series list
(** Runs the experiment once: its rendered tables and its series, not
    yet written. *)

val write_series : dir:string -> series list -> (string, string) result
(** Writes each series file into [dir] and returns one
    ["[series written to PATH]"] line per file, or the [Sys_error]
    message of the first file that could not be written. *)

val render :
  ?pool:Runner.t -> ?dump_dir:string -> scale:float -> seed:int -> entry ->
  string * string option
(** The rendered tables of one {!run}; with [dump_dir], also writes its
    series there and appends their {!write_series} lines. The second
    component is the {!write_series} error, the tables then standing
    alone. *)

val all : entry list
(** In the paper's presentation order. *)

val select : extra:entry list -> string list -> (entry list, string) result
(** [select ~extra names] is the entries called [names], in the order
    given (a name given twice is selected twice), looked up in {!all}
    and then in [extra], entries a front end offers beyond the catalogue.
    No name selects {!all}. [Error] names every unknown name:
    ["error: unknown experiment(s): a, b (try --list)"], worded like
    {!Cli_validate}'s messages. *)

val listing : unit -> string
(** The [--list] text: one ["name  description"] line per entry of
    {!all}. *)

val header : entry -> string
(** ["\n### name — description\n"], printed above an experiment's
    tables. *)
