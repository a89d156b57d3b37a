(** The JIT DNA of a function: the vector (Δ₁ … Δₙ) of per-pass IR
    modifications — the Δ extractor's output (paper §IV-D). *)

type t = {
  func_name : string;
  deltas : (string * Delta.t) list;  (** pass name → Δᵢ, in pipeline order *)
}

(** [extract ?n trace] consumes the pipeline's snapshot trace
    (IR₀ … IRₙ with pass names) and computes Δᵢ between consecutive
    snapshots. [n] is the sub-chain n-gram size (default 3, see {!Delta}).

    At n = 3 ({!Delta.trace3}) each snapshot is read once into a
    positional form and counted without building a {!Depgraph}; a
    snapshot whose positional form equals its predecessor's (unchanged,
    or only renumbered) gets the empty Δ without being counted, and only
    the sub-chains that end up in a Δ are interned. Other [n] build each
    snapshot's dependency graph and multiset. *)
val extract : ?n:int -> (string * Jitbull_mir.Snapshot.t) list -> t

(** [nonempty_passes t] — passes that modified the IR. *)
val nonempty_passes : t -> string list

val to_sexpr : t -> Jitbull_util.Sexpr.t
val of_sexpr : Jitbull_util.Sexpr.t -> t
val to_string : t -> string
