(** CSV export of time series, for plotting the figure-shaped results
    (Fig. 11's rate tracking, Fig. 12's per-flow rate evolution) with any
    external tool. *)

val write_csv :
  path:string -> header:string list -> float array list -> unit
(** [write_csv ~path ~header columns] writes aligned columns (one row per
    index, shorter columns padded with empty cells). [header] must have
    one label per column.
    @raise Invalid_argument if the header length mismatches. *)

val write_multi_series :
  path:string -> (string * (float * float) array) list -> unit
(** Merge several (time, value) series on their own rows:
    [series,time,value] long format — robust to unaligned sampling. *)
