(** Render a collector's ring into consumable artifacts.

    All three exporters renumber raw flow/link ids densely by first
    appearance in the event stream, so the output of a seeded run is
    byte-identical run to run even though the underlying ids come from
    process-global counters. Floating-point fields are printed with
    fixed [Printf] formats — no locale, no environment dependence —
    which is what lets CI diff two runs' artifacts for equality. *)

val chrome_json : Collector.t -> string
(** The Chrome trace-event JSON format (the ["traceEvents"] array
    form), loadable in Perfetto / [chrome://tracing]. Flows become
    threads of process 1 (monitor intervals as B/E spans, rate and cwnd
    as counter series), links become process 2 (queue occupancy
    counters, drops as instant events), engine dispatch records become
    process 0 counters. Timestamps are microseconds, non-negative and
    monotone non-decreasing in file order. *)

val write_chrome_json : path:string -> Collector.t -> unit

val decision_log : Collector.t -> string
(** Human-readable per-decision log: flow lifecycle, MI open / result /
    discard, and controller rate transitions with phase, direction and
    ladder step — one line per event, chronological. *)

val write_decision_log : path:string -> Collector.t -> unit

val csv_series : Collector.t -> (string * (float * float) array) list
(** Per-subject time series suitable for
    [Pcc_metrics.Series_io.write_multi_series]: [rate:<flow>] (Mbps),
    [utility:<flow>], [cwnd:<flow>] (packets), [queue:<link>] (bytes),
    in first-appearance order. *)
