(** A single set-associative cache level with LRU replacement.

    Only tags are modeled (data comes from {!Memory}); that is all the
    timing model needs. *)

type t

val create : ?name:string -> Ssp_machine.Config.cache_geom -> t
(** [name] registers telemetry counters ["<name>.hits"] / ["<name>.misses"]
    updated on every {!access} while telemetry is enabled. *)

val probe : t -> int64 -> bool
(** Whether the line containing the address is present (no state change). *)

val touch : t -> int64 -> unit
(** Mark the line most recently used (on a hit). *)

val install : t -> int64 -> unit
(** Fill the line, evicting the LRU way of its set. *)

val access : t -> int64 -> bool
(** [probe]; on hit also [touch]. Returns whether it hit. *)

val warm_access : t -> int -> bool
(** [access], and on a miss also [install], in one set scan: the
    functional-warming hot path. Equivalent to [access] followed by
    [install] up to LRU clock values (identical tags, recency order, and
    hit/miss counts). The address is a native int (62-bit address space),
    so the warming path never boxes. *)

val line_addr : t -> int64 -> int64

val line_bits : t -> int
(** log2 of the line size in bytes. *)

val stats_accesses : t -> int
val stats_misses : t -> int
val reset_stats : t -> unit
