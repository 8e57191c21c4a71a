type direction = Up | Down

let unplaced = min_int

type t = {
  g : Ts_ddg.Ddg.t;
  ii : int;
  time : int array; (* issue cycle, or [unplaced] *)
  mrt : Mrt.t;
  asap_tbl : int array;
  order : int array; (* placed nodes in placement order, first [n_placed] *)
  mutable n_placed : int;
  reg_active : bool array;
  mem_active : bool array;
}

let asap_table (g : Ts_ddg.Ddg.t) ~ii =
  let n = Ts_ddg.Ddg.n_nodes g in
  let asap = Array.make n 0 in
  (* Longest path from a virtual source; II >= RecII makes all cycles
     non-positive so relaxation converges within n rounds. *)
  let changed = ref true in
  let rounds = ref 0 in
  while !changed do
    changed := false;
    Array.iter
      (fun (e : Ts_ddg.Ddg.edge) ->
        let cand = asap.(e.src) + Ts_ddg.Ddg.latency g e.src - (ii * e.distance) in
        if cand > asap.(e.dst) then begin
          asap.(e.dst) <- cand;
          changed := true
        end)
      g.edges;
    incr rounds;
    if !rounds > n + 1 then
      invalid_arg
        (Printf.sprintf "Sched.create: ii=%d below RecII for loop %s" ii g.name)
  done;
  asap

let create ?asap g ~ii =
  let n = Ts_ddg.Ddg.n_nodes g in
  {
    g;
    ii;
    time = Array.make n unplaced;
    mrt = Mrt.create g.machine ~ii;
    asap_tbl = (match asap with Some a -> a | None -> asap_table g ~ii);
    order = Array.make n 0;
    n_placed = 0;
    reg_active = Array.make (Array.length (Ts_ddg.Ddg.reg_edge_array g)) false;
    mem_active = Array.make (Array.length (Ts_ddg.Ddg.mem_edge_array g)) false;
  }

let reset t =
  Array.fill t.time 0 (Array.length t.time) unplaced;
  t.n_placed <- 0;
  Array.fill t.reg_active 0 (Array.length t.reg_active) false;
  Array.fill t.mem_active 0 (Array.length t.mem_active) false;
  Mrt.clear t.mrt

let ddg t = t.g
let ii t = t.ii

let time t v =
  let c = t.time.(v) in
  if c = unplaced then None else Some c

let time_array t = t.time
let is_scheduled t v = t.time.(v) <> unplaced
let n_scheduled t = t.n_placed
let scheduled_nodes t = Array.to_list (Array.sub t.order 0 t.n_placed)
let asap t v = t.asap_tbl.(v)
let reg_active_mask t = t.reg_active
let mem_active_mask t = t.mem_active

(* Tightest bounds from the placed neighbours: [early_bound] is the max
   over placed predecessors ([unplaced] when there is none),
   [late_bound] the min over placed successors ([max_int] when none). *)
let rec early_bound g time ii acc = function
  | [] -> acc
  | (e : Ts_ddg.Ddg.edge) :: rest ->
      let tu = time.(e.src) in
      if tu = unplaced then early_bound g time ii acc rest
      else
        let b = tu + Ts_ddg.Ddg.latency g e.src - (ii * e.distance) in
        early_bound g time ii (if b > acc then b else acc) rest

let rec late_bound time ii lat_v acc = function
  | [] -> acc
  | (e : Ts_ddg.Ddg.edge) :: rest ->
      let ts = time.(e.dst) in
      if ts = unplaced then late_bound time ii lat_v acc rest
      else
        let b = ts - lat_v + (ii * e.distance) in
        late_bound time ii lat_v (if b < acc then b else acc) rest

let window ?(prefer = Up) t v =
  let early = early_bound t.g t.time t.ii unplaced t.g.preds.(v) in
  let late =
    late_bound t.time t.ii (Ts_ddg.Ddg.latency t.g v) max_int t.g.succs.(v)
  in
  match (early <> unplaced, late <> max_int) with
  | false, false ->
      (* No scheduled neighbours: start at ASAP, ascending — there is
         nothing to be close to, and an early start keeps the stage count
         down. *)
      let a = t.asap_tbl.(v) in
      Some (a, a + t.ii - 1, Up)
  | true, false -> Some (early, early + t.ii - 1, Up)
  | false, true -> Some (late - t.ii + 1, late, Down)
  | true, true ->
      let hi = min late (early + t.ii - 1) in
      if early > hi then None else Some (early, hi, prefer)

let candidate_cycles (lo, hi, dir) =
  let rec up c = if c > hi then [] else c :: up (c + 1) in
  let rec down c = if c < lo then [] else c :: down (c - 1) in
  match dir with Up -> up lo | Down -> down hi

let fits t v ~cycle = Mrt.fits t.mrt (Ts_ddg.Ddg.node t.g v).op ~cycle

(* Whether an edge with both endpoints placed is an inter-iteration
   dependence of the partial schedule (paper Definition 1, kernel
   distance >= 1). Stages come from raw issue cycles; the kernel
   normalises by a multiple of II, which preserves stage differences. *)
let edge_active t (e : Ts_ddg.Ddg.edge) =
  let ts = t.time.(e.src) and td = t.time.(e.dst) in
  ts <> unplaced && td <> unplaced
  && e.distance
     + Ts_base.Intmath.div_floor td t.ii
     - Ts_base.Intmath.div_floor ts t.ii
     >= 1

(* Re-derive the active flags of the edges incident to [v] after it was
   placed or evicted; only these can have changed. *)
let refresh_mask t mask (arr : Ts_ddg.Ddg.edge array) idxs =
  for k = 0 to Array.length idxs - 1 do
    let i = idxs.(k) in
    mask.(i) <- edge_active t arr.(i)
  done

let refresh_incident t v =
  refresh_mask t t.reg_active (Ts_ddg.Ddg.reg_edge_array t.g)
    (Ts_ddg.Ddg.incident_reg t.g v);
  refresh_mask t t.mem_active (Ts_ddg.Ddg.mem_edge_array t.g)
    (Ts_ddg.Ddg.incident_mem t.g v)

let place t v ~cycle =
  if is_scheduled t v then
    invalid_arg (Printf.sprintf "Sched.place: node %d already scheduled" v);
  Mrt.reserve t.mrt (Ts_ddg.Ddg.node t.g v).op ~cycle;
  t.time.(v) <- cycle;
  t.order.(t.n_placed) <- v;
  t.n_placed <- t.n_placed + 1;
  refresh_incident t v

let unplace t v =
  let cycle = t.time.(v) in
  if cycle = unplaced then
    invalid_arg (Printf.sprintf "Sched.unplace: node %d not scheduled" v);
  Mrt.release t.mrt (Ts_ddg.Ddg.node t.g v).op ~cycle;
  t.time.(v) <- unplaced;
  (* Close the gap in the placement order. *)
  let k = ref 0 in
  while t.order.(!k) <> v do incr k done;
  Array.blit t.order (!k + 1) t.order !k (t.n_placed - !k - 1);
  t.n_placed <- t.n_placed - 1;
  refresh_incident t v

let is_complete t = t.n_placed = Ts_ddg.Ddg.n_nodes t.g

let times_exn t =
  if not (is_complete t) then
    invalid_arg "Sched.times_exn: incomplete schedule";
  Array.copy t.time
