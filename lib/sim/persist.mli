(** Versioned, explicit binary serialization.

    [Pcc_scenario.Scenario.to_string]/[of_string] write a scenario
    field by field through {!Writer} and read it back through
    {!Reader}; those blobs are the repro payloads that
    [Pcc_fuzz.Corpus] banks as hex. Primitives only, never [Marshal],
    so closures cannot end up in a blob and malformed input raises
    {!Corrupt} rather than crashing the runtime. Every blob starts with
    a magic string and an explicit format version; bump the version
    whenever the field layout changes and branch on {!Reader.version}
    (or reject) when loading. *)

exception Corrupt of string
(** Raised by {!Reader} on truncated input, bad magic, or malformed
    encodings. *)

module Writer : sig
  type t

  val create : magic:string -> version:int -> t
  (** A fresh blob opening with [magic] and [version]. *)

  val u8 : t -> int -> unit
  val int : t -> int -> unit
  (** Zig-zag LEB128: compact for small magnitudes of either sign. *)

  val int64 : t -> int64 -> unit
  val float : t -> float -> unit
  (** IEEE-754 bit pattern — exact round-trip, NaN and infinities
      included. *)

  val bool : t -> bool -> unit
  val string : t -> string -> unit
  val option : t -> (t -> 'a -> unit) -> 'a option -> unit
  val list : t -> (t -> 'a -> unit) -> 'a list -> unit

  val contents : t -> string
  (** The serialized bytes, header included. *)
end

module Reader : sig
  type t

  val of_string : magic:string -> string -> t
  (** Parse the header. @raise Corrupt if the magic does not match. *)

  val version : t -> int
  (** The version the blob was written with. *)

  val u8 : t -> int
  val int : t -> int
  val int64 : t -> int64
  val float : t -> float
  val bool : t -> bool
  val string : t -> string
  val option : t -> (t -> 'a) -> 'a option
  val list : t -> (t -> 'a) -> 'a list

  val at_end : t -> bool
  (** Whether every byte has been consumed. *)
end
