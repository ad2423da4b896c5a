(** First-class scenario programs: a serializable, generatable description
    of one complete simulation — topology, sender mix, fault schedule,
    link dynamics and cross traffic.

    The hand-written experiments cover the paper's evaluation points; a
    {!t} covers the space {e between} them. It is plain data: it can be
    drawn at random from a seeded {!generate}, stored and replayed
    byte-for-byte through {!to_string}/{!of_string} (explicit
    {!Pcc_sim.Persist} framing, never [Marshal]), minimized by the
    fuzzer's shrinker, and compiled onto an engine with {!build}. The
    fuzzing harness ([Pcc_fuzz]) and the [pcc_sim fuzz] subcommand are
    the main consumers; the ROADMAP's declarative scenario bank grows
    from this type.

    {b Determinism.} [build] derives every random stream from
    [t.seed] alone, in a fixed split order (topology, then dynamics,
    then one stream per cross-traffic source), so running the same
    scenario value twice reproduces every simulated event bit-for-bit —
    the property the fuzzer's determinism oracle checks. *)

type link = {
  src : int;
  dst : int;
  bandwidth : float;  (** bits/s *)
  delay : float;  (** one-way propagation, s *)
  buffer : int;  (** bytes *)
  queue : Topology.queue_kind;
  loss : float;
  jitter : float;
}

type flow = {
  transport : string;  (** A {!Transport.of_name} name. *)
  route : int list;
  rev_route : int list option;
  rev_lossy : bool;
  start_at : float;
  stop_at : float option;
  size : int option;
  extra_rtt : float;
}

type cross = {
  cross_link : int;  (** Link the on/off source shares. *)
  rate : float;  (** bits/s while ON. *)
  on_mean : float;
  off_mean : float;
}

type dynamics = {
  dyn_link : int;
  period : float;
  bw_lo : float;
  bw_hi : float;
  rtt_lo : float;
  rtt_hi : float;
  loss_lo : float;
  loss_hi : float;
}

type t = {
  seed : int;  (** Seed of every random stream [build] derives. *)
  duration : float;  (** Simulated seconds the scenario runs for. *)
  links : link list;
  flows : flow list;
  faults : Fault.schedule;
  cross : cross list;
  dynamics : dynamics option;
}

val equal : t -> t -> bool
(** Structural equality ([compare]-based, so NaN equals itself) — what
    the serialization roundtrip oracle checks. *)

val describe : t -> string
(** One-line summary: shape, flow mix, fault/cross/dynamics counts. *)

(** {1 Building} *)

type built = {
  topo : Topology.t;
  stop : unit -> unit;
      (** Stop the dynamics driver and cross-traffic sources (flow
          start/stop is already scheduled by the topology). *)
}

val build : Pcc_sim.Engine.t -> t -> built
(** Compile the scenario onto an engine: build the {!Topology}, inject
    the fault schedule, start dynamics and cross traffic. Run it with
    [Engine.run ~until:t.duration].
    @raise Invalid_argument on an unknown transport name, non-positive
    [duration], an out-of-range [cross_link]/[dyn_link], or anything
    {!Topology.build}/{!Fault.inject}/{!Dynamics.start} rejects. *)

(** {1 Serialization} *)

val to_string : t -> string
(** Versioned binary encoding via {!Pcc_sim.Persist.Writer}. The current
    version is 2: layout-identical to version 1, but written by binaries
    whose transport vocabulary includes the Vivace/Proteus controllers,
    so an older reader rejects the blob at its header. *)

val of_string : string -> t
(** Accepts versions 1 and 2 (same layout).
    @raise Pcc_sim.Persist.Corrupt on bad magic, an unsupported version
    or a malformed encoding. *)

(** {1 Generation} *)

val generate : ?menu:string list -> rng:Pcc_sim.Rng.t -> unit -> t
(** Draw a random-but-valid scenario: a dumbbell, 2–4-hop chain or
    congested-reverse-path shape; 1–4 flows with transports from the
    full {!Transport.all_names} menu, random routes, start/stop times,
    sizes and extra RTTs; link parameters spanning bandwidths of
    1–60 Mbps, shallow-to-bloated buffers and every queue discipline;
    an optional chaos fault schedule, cross-traffic source and dynamic
    link perturbation. The result always satisfies {!build}'s
    validation — the generator's envelope is the fuzzer's input space.
    All values are drawn from [rng] in a fixed order, so a seed
    determines the scenario.

    [menu] restricts the transports flows are drawn from (e.g. the
    nightly controllers axis fuzzing only the PCC family); it defaults
    to {!Transport.all_names}. The same seed with a different menu
    yields a different scenario — determinism holds per (seed, menu).
    @raise Invalid_argument if [menu] is empty or has an unknown name. *)
