(* Modulo reservation table. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let m = Ts_isa.Machine.spmt_core

let test_fits_empty () =
  let t = Ts_modsched.Mrt.create m ~ii:4 in
  List.iter
    (fun op -> check_bool "fits in empty table" true (Ts_modsched.Mrt.fits t op ~cycle:0))
    [ Ts_isa.Opcode.Ialu; Ts_isa.Opcode.Load; Ts_isa.Opcode.Fmul ]

let test_unit_exhaustion () =
  (* spmt has 2 memory ports: a third load in the same modulo cycle fails *)
  let t = Ts_modsched.Mrt.create m ~ii:4 in
  Ts_modsched.Mrt.reserve t Ts_isa.Opcode.Load ~cycle:1;
  Ts_modsched.Mrt.reserve t Ts_isa.Opcode.Store ~cycle:1;
  check_bool "ports full" false (Ts_modsched.Mrt.fits t Ts_isa.Opcode.Load ~cycle:1);
  check_bool "other cycle free" true (Ts_modsched.Mrt.fits t Ts_isa.Opcode.Load ~cycle:2)

let test_issue_width () =
  let t = Ts_modsched.Mrt.create m ~ii:4 in
  (* 4-wide: four ALU ops fill cycle 0's issue slots *)
  for _ = 1 to 4 do
    Ts_modsched.Mrt.reserve t Ts_isa.Opcode.Ialu ~cycle:0
  done;
  check_bool "issue slots exhausted" false
    (Ts_modsched.Mrt.fits t Ts_isa.Opcode.Fadd ~cycle:0);
  check_int "used slots" 4 (Ts_modsched.Mrt.used_issue_slots t 0)

let test_modulo_wrap () =
  let t = Ts_modsched.Mrt.create m ~ii:4 in
  Ts_modsched.Mrt.reserve t Ts_isa.Opcode.Load ~cycle:9;
  Ts_modsched.Mrt.reserve t Ts_isa.Opcode.Load ~cycle:(-3);
  (* 9 mod 4 = 1 and -3 mod 4 = 1: both ports used at modulo cycle 1 *)
  check_bool "wrapped" false (Ts_modsched.Mrt.fits t Ts_isa.Opcode.Load ~cycle:5)

let test_unpipelined_occupancy () =
  (* toy's multiplier is busy 4 cycles; at ii=8 two muls fit, offset apart *)
  let t = Ts_modsched.Mrt.create Ts_isa.Machine.toy ~ii:8 in
  Ts_modsched.Mrt.reserve t Ts_isa.Opcode.Fmul ~cycle:0;
  check_bool "occupied cycles 0-3" false
    (Ts_modsched.Mrt.fits t Ts_isa.Opcode.Fmul ~cycle:3);
  check_bool "free at cycle 4" true (Ts_modsched.Mrt.fits t Ts_isa.Opcode.Fmul ~cycle:4)

let test_unpipelined_too_big () =
  (* busy 4 > ii * units = 3: can never fit *)
  let t = Ts_modsched.Mrt.create Ts_isa.Machine.toy ~ii:3 in
  check_bool "cannot fit" false (Ts_modsched.Mrt.fits t Ts_isa.Opcode.Fmul ~cycle:0)

let test_wrap_multiplicity () =
  (* busy 8 multiplier at ii 8 occupies every cycle once: a second cannot fit
     anywhere (1 unit) *)
  let t = Ts_modsched.Mrt.create Ts_isa.Machine.toy ~ii:8 in
  Ts_modsched.Mrt.reserve t Ts_isa.Opcode.Fdiv ~cycle:0;
  check_bool "fully occupied" false (Ts_modsched.Mrt.fits t Ts_isa.Opcode.Fmul ~cycle:5)

let test_release () =
  let t = Ts_modsched.Mrt.create m ~ii:4 in
  Ts_modsched.Mrt.reserve t Ts_isa.Opcode.Load ~cycle:0;
  Ts_modsched.Mrt.reserve t Ts_isa.Opcode.Load ~cycle:0;
  check_bool "full" false (Ts_modsched.Mrt.fits t Ts_isa.Opcode.Load ~cycle:0);
  Ts_modsched.Mrt.release t Ts_isa.Opcode.Load ~cycle:0;
  check_bool "one slot back" true (Ts_modsched.Mrt.fits t Ts_isa.Opcode.Load ~cycle:0)

(* Every observable answer of two tables agrees: issue slots at each row
   and [fits] for every opcode at each row. *)
let same_answers ~ii a b =
  List.for_all
    (fun c ->
      Ts_modsched.Mrt.used_issue_slots a c = Ts_modsched.Mrt.used_issue_slots b c
      && List.for_all
           (fun op ->
             Ts_modsched.Mrt.fits a op ~cycle:c = Ts_modsched.Mrt.fits b op ~cycle:c)
           Ts_isa.Opcode.all)
    (List.init ii Fun.id)

let test_rejected_release_leaves_table () =
  (* A release of something never reserved raises and changes nothing:
     no negative cells, so no phantom capacity for later [fits] calls. *)
  List.iter
    (fun (machine, ii) ->
      List.iter
        (fun op ->
          let t = Ts_modsched.Mrt.create machine ~ii in
          Alcotest.check_raises "not reserved"
            (Invalid_argument "Mrt.release: not reserved")
            (fun () -> Ts_modsched.Mrt.release t op ~cycle:1);
          check_bool
            (Printf.sprintf "%s ii=%d %s: same as a fresh table"
               machine.Ts_isa.Machine.name ii (Ts_isa.Opcode.to_string op))
            true
            (same_answers ~ii t (Ts_modsched.Mrt.create machine ~ii)))
        Ts_isa.Opcode.all)
    [ (m, 1); (m, 4); (m, 7); (Ts_isa.Machine.toy, 3); (Ts_isa.Machine.toy, 8) ];
  (* Issue slot held but unit not: an FP add cannot release the row a
     load holds, and the load's reservation survives intact. *)
  let t = Ts_modsched.Mrt.create m ~ii:4 in
  Ts_modsched.Mrt.reserve t Ts_isa.Opcode.Load ~cycle:2;
  let before = Ts_modsched.Mrt.create m ~ii:4 in
  Ts_modsched.Mrt.reserve before Ts_isa.Opcode.Load ~cycle:2;
  Alcotest.check_raises "wrong unit"
    (Invalid_argument "Mrt.release: not reserved")
    (fun () -> Ts_modsched.Mrt.release t Ts_isa.Opcode.Fadd ~cycle:2);
  check_bool "unchanged after a wrong-unit release" true
    (same_answers ~ii:4 t before)

let test_reserve_overflow_raises () =
  let t = Ts_modsched.Mrt.create m ~ii:2 in
  Ts_modsched.Mrt.reserve t Ts_isa.Opcode.Imul ~cycle:0;
  Alcotest.check_raises "second imul rejected"
    (Invalid_argument "Mrt.reserve: imul does not fit at cycle 0 (ii=2)")
    (fun () -> Ts_modsched.Mrt.reserve t Ts_isa.Opcode.Imul ~cycle:0)

let test_create_bad_ii () =
  Alcotest.check_raises "ii 0" (Invalid_argument "Mrt.create: ii must be positive")
    (fun () -> ignore (Ts_modsched.Mrt.create m ~ii:0))

let prop_capacity_never_exceeded =
  QCheck.Test.make ~count:100 ~name:"greedy fill never exceeds capacity"
    QCheck.(pair small_int (int_range 1 12))
    (fun (seed, ii) ->
      let rng = Ts_base.Rng.create (Int64.of_int seed) in
      let t = Ts_modsched.Mrt.create m ~ii in
      let ops = [| Ts_isa.Opcode.Ialu; Ts_isa.Opcode.Load; Ts_isa.Opcode.Fmul;
                   Ts_isa.Opcode.Fadd; Ts_isa.Opcode.Store |] in
      for _ = 1 to 50 do
        let op = Ts_base.Rng.pick rng ops in
        let c = Ts_base.Rng.int rng (2 * ii) in
        if Ts_modsched.Mrt.fits t op ~cycle:c then Ts_modsched.Mrt.reserve t op ~cycle:c
      done;
      (* issue width is respected at every modulo cycle *)
      List.init ii Fun.id
      |> List.for_all (fun c ->
             Ts_modsched.Mrt.used_issue_slots t c <= m.Ts_isa.Machine.issue_width))

let suite =
  [
    Alcotest.test_case "fits: empty table" `Quick test_fits_empty;
    Alcotest.test_case "fits: unit exhaustion" `Quick test_unit_exhaustion;
    Alcotest.test_case "fits: issue width" `Quick test_issue_width;
    Alcotest.test_case "fits: modulo wrap" `Quick test_modulo_wrap;
    Alcotest.test_case "fits: unpipelined occupancy" `Quick test_unpipelined_occupancy;
    Alcotest.test_case "fits: busy > capacity" `Quick test_unpipelined_too_big;
    Alcotest.test_case "fits: wrapped multiplicity" `Quick test_wrap_multiplicity;
    Alcotest.test_case "release undoes reserve" `Quick test_release;
    Alcotest.test_case "release: rejected leaves table unchanged" `Quick
      test_rejected_release_leaves_table;
    Alcotest.test_case "reserve: overflow raises" `Quick test_reserve_overflow_raises;
    Alcotest.test_case "create: bad ii" `Quick test_create_bad_ii;
    QCheck_alcotest.to_alcotest prop_capacity_never_exceeded;
  ]
