(** Instruction dependency graph (Algorithm 1's BUILDGRAPH).

    Built from an IR {!Jitbull_mir.Snapshot}: every instruction that has
    operands enters the graph; an instruction used as an operand of
    another becomes a dependency of it and stops being a root. Roots are
    therefore the instructions no other instruction uses.

    Nodes carry opcodes, not instruction numbers — chains must compare
    across different functions and across renumbering. *)

type node = {
  num : int;  (** snapshot display number (diagnostics only) *)
  opcode : string;
  opcode_id : Jitbull_util.Intern.id;
      (** interned [opcode] — the n = 2 multiset builds its keys from
          ids (n = 3 counts over {!Delta}'s own positional form) *)
  mutable deps : node list;  (** dependencies = operands, in operand order *)
}

type t = {
  nodes : node list;  (** every node, in snapshot order *)
  roots : node list;  (** nodes not used as an operand of any other *)
}

(** [build snapshot] runs Algorithm 1's BUILDGRAPH. Operand references to
    numbers missing from the snapshot (impossible for well-formed
    snapshots) are ignored. *)
val build : Jitbull_mir.Snapshot.t -> t

(** [edges t] — every dependency edge as an (user opcode, dependency
    opcode) pair, one per instruction-level edge. This is the multiset the
    2-gram Δ works on. *)
val edges : t -> (string * string) list

val node_count : t -> int
val edge_count : t -> int

val to_string : t -> string
