(** Deterministic pseudo-random number generation.

    A from-scratch splitmix64 generator. Every stochastic component of the
    simulator (channel loss, monitor-interval lengths, randomized controlled
    trials, workload arrivals) draws from its own stream, obtained with
    {!split}, so that changing one component's consumption pattern does not
    perturb the others and every experiment is reproducible from a seed. *)

type t
(** A mutable generator state. Draws allocate nothing. *)

val create : int -> t
(** [create seed] is a fresh generator deterministically derived from
    [seed]. Equal seeds yield identical streams. *)

val split : t -> t
(** [split t] derives a new generator whose future output is independent of
    [t]'s (in the splitmix sense); both generators remain usable. *)

val copy : t -> t
(** [copy t] duplicates the current state; the copy replays the same
    stream. *)

val bits64 : t -> int64
(** [bits64 t] is the next raw 64-bit output. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)]. @raise Invalid_argument if [n <= 0]. *)

val float : t -> float
(** [float t] is uniform in [\[0, 1)]. *)

val uniform : t -> float -> float -> float
(** [uniform t lo hi] is uniform in [\[lo, hi)]. *)

val bool : t -> bool
(** [bool t] is a fair coin flip. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p] (clamped to [\[0,1\]]). *)

val exponential : t -> float -> float
(** [exponential t mean] draws from an exponential distribution with the
    given [mean]. @raise Invalid_argument if [mean <= 0]. *)

val pareto : t -> shape:float -> scale:float -> float
(** [pareto t ~shape ~scale] draws from a Pareto distribution, used for
    heavy-tailed flow sizes. @raise Invalid_argument if [shape <= 0.] or
    [scale <= 0.]. *)

val log_uniform : t -> float -> float -> float
(** [log_uniform t lo hi] is distributed so that its logarithm is uniform in
    [\[log lo, log hi)] — used to draw Internet-path BDPs spanning three
    orders of magnitude. @raise Invalid_argument unless [0 < lo <= hi]. *)

val pick : t -> 'a array -> 'a
(** [pick t a] is a uniformly random element of [a].
    @raise Invalid_argument if [a] is empty. *)

val shuffle : t -> 'a array -> unit
(** [shuffle t a] permutes [a] in place (Fisher–Yates). *)
