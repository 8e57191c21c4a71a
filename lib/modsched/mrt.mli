(** Modulo reservation table.

    Tracks functional-unit and issue-slot occupancy modulo II. An
    instruction placed at cycle [c] occupies one issue slot at [c mod II]
    and its functional unit for [busy] consecutive modulo cycles starting
    at [c mod II] (unpipelined units have [busy > 1]).

    The table is a flat [int] array per functional-unit class. {!fits},
    {!reserve} and {!release} allocate nothing and touch only the cells the
    op occupies. *)

type t

val create : Ts_isa.Machine.t -> ii:int -> t

val ii : t -> int

val clear : t -> unit
(** Release every reservation (the table is reused, not reallocated). *)

val fits : t -> Ts_isa.Opcode.t -> cycle:int -> bool
(** Can an instruction of this class be placed at [cycle] without exceeding
    any unit count or the issue width? [cycle] may be any integer (it is
    reduced modulo II). *)

val reserve : t -> Ts_isa.Opcode.t -> cycle:int -> unit
(** Claim the resources. Raises [Invalid_argument] if [fits] is false. *)

val release : t -> Ts_isa.Opcode.t -> cycle:int -> unit
(** Undo a [reserve] (used by schedulers that eject instructions). Raises
    [Invalid_argument] when the op's issue slot or unit cells are not held;
    the table is then left unchanged. *)

val used_issue_slots : t -> int -> int
(** Issue slots currently taken at a modulo cycle (for tests/statistics). *)
