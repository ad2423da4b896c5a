(** A power-of-two ring over a sliding window of dense sequence numbers:
    [s] lives in slot [s land mask] of storage the caller owns. Callers
    read a sequence below [base] as settled and never touch its slot. *)

type t = private { mutable base : int; mutable mask : int }
(** The window is [[base, base + mask]]. The fields are readable so a
    per-packet path can test membership and index without a call. *)

val create : int -> t
(** [create cap] starts at base 0 with [cap] slots, a power of two. *)

val reserve :
  t ->
  int ->
  floor:int ->
  clear:(int -> int -> unit) ->
  grow:(int -> unit) ->
  move:(int -> int -> int -> unit) ->
  unit
(** [reserve w s ~floor ~clear ~grow ~move] makes room for [s >= base]
    outside the window: the base slides up to [min floor s], handing
    each vacated run of slots to [clear pos len]; if [s] still does not
    fit, the capacity doubles until it does, [grow cap] allocates new
    storage and [move src dst len] copies each run of live entries. *)
