module M = Ts_isa.Machine

type t = {
  machine : M.t;
  ii : int;
  issue_width : int;
  issue : int array; (* issue slots used per modulo cycle *)
  units : int array; (* units per FU class, indexed by [fu_index] *)
  fu_use : int array array; (* per FU class: units busy per modulo cycle *)
}

let fu_index : M.fu -> int = function
  | Fu_ialu -> 0
  | Fu_imul -> 1
  | Fu_falu -> 2
  | Fu_fmul -> 3
  | Fu_mem -> 4
  | Fu_br -> 5

let n_fu = List.length M.fu_all

let create machine ~ii =
  if ii <= 0 then invalid_arg "Mrt.create: ii must be positive";
  let units = Array.make n_fu 0 in
  List.iter (fun fu -> units.(fu_index fu) <- M.fu_count machine fu) M.fu_all;
  {
    machine;
    ii;
    issue_width = machine.M.issue_width;
    issue = Array.make ii 0;
    units;
    fu_use = Array.init n_fu (fun _ -> Array.make ii 0);
  }

let ii t = t.ii

let clear t =
  Array.fill t.issue 0 t.ii 0;
  Array.iter (fun use -> Array.fill use 0 t.ii 0) t.fu_use

let modulo t c =
  let m = c mod t.ii in
  if m < 0 then m + t.ii else m

(* An op issued at modulo row [c0] holds its unit for [busy] consecutive
   cycles. When [busy > ii] the occupancy wraps and lands on a cell more
   than once: every cell gets [busy / ii], and the first [busy mod ii]
   cells from [c0] one more. So the op touches [cells] = [min busy ii]
   cells; the [k]-th of them is row [cell ii c0 k] with demand
   [demand q r k], where [q = busy / ii] and [r = busy mod ii]. *)
let cells ii q r = if q = 0 then r else ii

let cell ii c0 k =
  let c = c0 + k in
  if c >= ii then c - ii else c

let demand q r k = if k < r then q + 1 else q

let fits t op ~cycle =
  let d = t.machine.M.describe op in
  let f = fu_index d.fu in
  let units = t.units.(f) in
  let ii = t.ii in
  let c0 = modulo t cycle in
  if t.issue.(c0) >= t.issue_width then false
  else if d.busy > ii * units then false
  else begin
    let use = t.fu_use.(f) in
    let q = d.busy / ii and r = d.busy mod ii in
    let n = cells ii q r in
    let ok = ref true and k = ref 0 in
    while !ok && !k < n do
      if use.(cell ii c0 !k) + demand q r !k > units then ok := false;
      incr k
    done;
    !ok
  end

(* Add [sign] times the op's demand to every cell it touches. *)
let apply t op ~c0 sign =
  let d = t.machine.M.describe op in
  let use = t.fu_use.(fu_index d.fu) in
  let ii = t.ii in
  let q = d.busy / ii and r = d.busy mod ii in
  t.issue.(c0) <- t.issue.(c0) + sign;
  for k = 0 to cells ii q r - 1 do
    let c = cell ii c0 k in
    use.(c) <- use.(c) + (sign * demand q r k)
  done

let reserve t op ~cycle =
  if not (fits t op ~cycle) then
    invalid_arg
      (Printf.sprintf "Mrt.reserve: %s does not fit at cycle %d (ii=%d)"
         (Ts_isa.Opcode.to_string op) cycle t.ii);
  apply t op ~c0:(modulo t cycle) 1

(* Validate every cell the op touches before mutating anything, so a
   rejected release leaves the table unchanged. *)
let release t op ~cycle =
  let d = t.machine.M.describe op in
  let use = t.fu_use.(fu_index d.fu) in
  let ii = t.ii in
  let c0 = modulo t cycle in
  let q = d.busy / ii and r = d.busy mod ii in
  let n = cells ii q r in
  let ok = ref (t.issue.(c0) >= 1) and k = ref 0 in
  while !ok && !k < n do
    if use.(cell ii c0 !k) < demand q r !k then ok := false;
    incr k
  done;
  if not !ok then invalid_arg "Mrt.release: not reserved";
  apply t op ~c0 (-1)

let used_issue_slots t c = t.issue.(modulo t c)
