(* Tests for the arbitrary-precision arithmetic substrate: unit tests on
   known values and corner cases, property tests against the native-int
   oracle (for values that fit) and against algebraic laws (for values
   that do not). *)

module B = Numbers.Bigint
module Q = Numbers.Rational

let bigint = Alcotest.testable B.pp B.equal
let rational = Alcotest.testable Q.pp Q.equal

(* ------------------------------------------------------------------ *)
(* Bigint unit tests.                                                  *)

let test_of_to_int () =
  List.iter
    (fun n -> Alcotest.(check (option int)) (string_of_int n) (Some n) (B.to_int (B.of_int n)))
    [ 0; 1; -1; 42; -42; 1 lsl 30; (1 lsl 30) - 1; 1 lsl 45; -(1 lsl 45);
      max_int / 2; min_int / 2; (1 lsl 62) - 1; -((1 lsl 62) - 1); max_int; min_int ];
  let p62 = B.pow B.two 62 in
  Alcotest.(check (option int)) "2^62" None (B.to_int p62);
  Alcotest.(check bool) "2^62 does not fit" false (B.fits_int p62);
  Alcotest.(check (option int)) "-2^62" (Some min_int) (B.to_int (B.neg p62));
  Alcotest.(check bool) "-2^62 fits" true (B.fits_int (B.neg p62))

let test_string_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) s s (B.to_string (B.of_string s)))
    [ "0"; "1"; "-1"; "123456789012345678901234567890";
      "-999999999999999999999999999999999999";
      "1000000000000000000000000000000000000000000000001" ]

let test_string_leading_plus () =
  Alcotest.check bigint "+17" (B.of_int 17) (B.of_string "+17")

let test_add_carries () =
  let big = B.of_string "1073741823" in
  (* 2^30 - 1 *)
  Alcotest.check bigint "carry" (B.of_string "1073741824") (B.add big B.one);
  let x = B.of_string "999999999999999999999999999999" in
  Alcotest.check bigint "add/sub inverse" x (B.sub (B.add x big) big)

let test_mul_known () =
  let a = B.of_string "123456789123456789" in
  let b = B.of_string "987654321987654321" in
  Alcotest.check bigint "product"
    (B.of_string "121932631356500531347203169112635269")
    (B.mul a b)

let test_divmod_known () =
  let a = B.of_string "1000000000000000000000000000" in
  let b = B.of_string "7777777777777" in
  let q, r = B.divmod a b in
  Alcotest.check bigint "reconstruct" a (B.add (B.mul q b) r);
  Alcotest.(check bool) "rem bound" true (B.compare (B.abs r) (B.abs b) < 0)

let test_divmod_signs () =
  let check a b eq er =
    let q, r = B.divmod (B.of_int a) (B.of_int b) in
    Alcotest.check bigint (Printf.sprintf "%d/%d q" a b) (B.of_int eq) q;
    Alcotest.check bigint (Printf.sprintf "%d/%d r" a b) (B.of_int er) r
  in
  check 7 2 3 1;
  check (-7) 2 (-3) (-1);
  check 7 (-2) (-3) 1;
  check (-7) (-2) 3 (-1)

let test_ediv_emod () =
  let check a b =
    let q, r = B.ediv_emod (B.of_int a) (B.of_int b) in
    Alcotest.check bigint "a = q*b + r" (B.of_int a) (B.add (B.mul q (B.of_int b)) r);
    Alcotest.(check bool) "0 <= r" true (B.sign r >= 0);
    Alcotest.(check bool) "r < |b|" true (B.compare r (B.abs (B.of_int b)) < 0)
  in
  List.iter (fun (a, b) -> check a b) [ (7, 2); (-7, 2); (7, -2); (-7, -2); (0, 5); (12, 4); (-12, 4) ]

let test_fdiv_cdiv () =
  Alcotest.check bigint "fdiv -7 2" (B.of_int (-4)) (B.fdiv (B.of_int (-7)) (B.of_int 2));
  Alcotest.check bigint "cdiv -7 2" (B.of_int (-3)) (B.cdiv (B.of_int (-7)) (B.of_int 2));
  Alcotest.check bigint "fdiv 7 2" (B.of_int 3) (B.fdiv (B.of_int 7) (B.of_int 2));
  Alcotest.check bigint "cdiv 7 2" (B.of_int 4) (B.cdiv (B.of_int 7) (B.of_int 2))

let test_div_by_zero () =
  Alcotest.check_raises "divmod" Division_by_zero (fun () ->
      ignore (B.divmod B.one B.zero))

let test_gcd_lcm () =
  Alcotest.check bigint "gcd" (B.of_int 6) (B.gcd (B.of_int 54) (B.of_int (-24)));
  Alcotest.check bigint "gcd 0 0" B.zero (B.gcd B.zero B.zero);
  Alcotest.check bigint "gcd 0 x" (B.of_int 5) (B.gcd B.zero (B.of_int 5));
  Alcotest.check bigint "lcm" (B.of_int 36) (B.lcm (B.of_int 12) (B.of_int (-18)));
  Alcotest.check bigint "lcm 0" B.zero (B.lcm B.zero (B.of_int 3))

let test_pow () =
  Alcotest.check bigint "2^100"
    (B.of_string "1267650600228229401496703205376")
    (B.pow B.two 100);
  Alcotest.check bigint "x^0" B.one (B.pow (B.of_int 17) 0);
  Alcotest.check_raises "negative" (Invalid_argument "Bigint.pow: negative exponent")
    (fun () -> ignore (B.pow B.two (-1)))

let test_shift_left () =
  Alcotest.check bigint "1 << 62" (B.of_string "4611686018427387904") (B.shift_left B.one 62);
  Alcotest.check bigint "3 << 100"
    (B.mul (B.of_int 3) (B.pow B.two 100))
    (B.shift_left (B.of_int 3) 100)

let test_compare_orders () =
  let xs = [ "-100000000000000000000"; "-5"; "0"; "3"; "100000000000000000000" ] in
  let sorted = List.map B.of_string xs in
  let shuffled = List.rev sorted in
  Alcotest.(check (list string))
    "sort"
    xs
    (List.map B.to_string (List.sort B.compare shuffled))

let test_min_max () =
  let a = B.of_int (-3) and b = B.of_int 7 in
  Alcotest.check bigint "min" a (B.min a b);
  Alcotest.check bigint "max" b (B.max a b)

let test_fits_int () =
  Alcotest.(check bool) "small fits" true (B.fits_int (B.of_int 12345));
  Alcotest.(check bool) "2^200 does not" false (B.fits_int (B.pow B.two 200));
  Alcotest.(check (option int)) "to_int big" None (B.to_int (B.pow B.two 200))

(* [hash] feeds Linexpr's hash and the solver's atom tables, and
   [to_string] feeds the discharge cache's fingerprints, so both are
   pinned to the values the sign-magnitude representation produced. *)
let test_hash_string_pinned () =
  let p = B.pow B.two in
  List.iter
    (fun (name, x, h, str) ->
      Alcotest.(check int) ("hash " ^ name) h (B.hash x);
      Alcotest.(check string) ("to_string " ^ name) str (B.to_string x))
    [ ("0", B.zero, 7, "0");
      ("1", B.one, 249, "1");
      ("-1", B.minus_one, 187, "-1");
      ("123456789", B.of_int 123456789, 123457037, "123456789");
      ("2^30", p 30, 7689, "1073741824");
      ("2^40", p 40, 8712, "1099511627776");
      ("2^60", p 60, 238329, "1152921504606846976");
      ("2^61-1", B.pred (p 61), 1065152126745, "2305843009213693951");
      ("-(2^61-1)", B.neg (B.pred (p 61)), 1065152067163, "-2305843009213693951");
      ("2^61", p 61, 238330, "2305843009213693952");
      ("-2^61", B.neg (p 61), 178748, "-2305843009213693952");
      ("max_int", B.of_int max_int, 1065152126747, "4611686018427387903");
      ("min_int", B.of_int min_int, 178750, "-4611686018427387904");
      ("2^62", p 62, 238332, "4611686018427387904");
      ("2^100", p 100, 7389192, "1267650600228229401496703205376");
      ("-3^50", B.neg (B.pow (B.of_int 3) 50), 276109622073, "-717897987691852588770249");
      ("10^30+7", B.add (B.pow (B.of_int 10) 30) (B.of_int 7), 442828862125,
       "1000000000000000000000000000007") ]

(* ------------------------------------------------------------------ *)
(* Bigint property tests.                                              *)

let arb_small_int = QCheck.int_range (-1_000_000_000) 1_000_000_000

(* Big operands built from three native ints: (a * 2^62 + b) * sign. *)
let arb_big =
  QCheck.map
    (fun (a, b, neg) ->
      let v = B.add (B.mul (B.of_int (abs a)) (B.pow B.two 62)) (B.of_int (abs b)) in
      if neg then B.neg v else v)
    QCheck.(triple int int bool)

let prop name count arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

(* Operands within a few units of the places where a representation can
   change: the 2^30 digit and fast-multiply bound, 2^31, the 2^61
   immediate bound, 2^62 and the native [max_int]/[min_int]; either sign.
   Mixed with small and multi-limb operands so that every pairing of
   forms is drawn. *)
let arb_edge =
  let centers =
    [ B.zero; B.pow B.two 30; B.pow B.two 31; B.pow B.two 61; B.pow B.two 62;
      B.of_int max_int; B.of_int min_int ]
  in
  let edge =
    QCheck.Gen.(
      map3
        (fun c k neg ->
          let v = B.add c (B.of_int k) in
          if neg then B.neg v else v)
        (oneofl centers) (int_range (-4) 4) bool)
  in
  QCheck.make ~print:B.to_string
    QCheck.Gen.(
      frequency
        [ (6, edge); (1, map B.of_int (QCheck.gen arb_small_int)); (1, QCheck.gen arb_big) ])

(* 2^70 is multi-limb in any representation: shifting an operand by it
   and back routes an operation through the multi-limb code, which must
   agree with the machine-int path. *)
let far = B.pow B.two 70

let native_add x y =
  let s = x + y in
  if (x >= 0) = (y >= 0) && (s >= 0) <> (x >= 0) then None else Some s

let native_mul x y =
  if x = 0 then Some 0
  else
    let p = x * y in
    if p / x <> y || (x = -1 && y = min_int) then None else Some p

(* [Some] result of a native oracle when both operands are native ints. *)
let oracle f a b =
  match (B.to_int a, B.to_int b) with Some x, Some y -> f x y | _ -> None

let same a b = B.equal a b && a = b && B.to_string a = B.to_string b

let edge_props =
  let pair = QCheck.pair arb_edge arb_edge in
  [
    prop "edge add matches multi-limb path and int oracle" 2000 pair (fun (a, b) ->
        let s = B.add a b in
        same s (B.sub (B.add (B.add a far) b) far)
        && B.equal (B.sub s b) a
        && match oracle native_add a b with Some n -> same s (B.of_int n) | None -> true);
    prop "edge sub matches multi-limb path and int oracle" 2000 pair (fun (a, b) ->
        let d = B.sub a b in
        same d (B.sub (B.sub (B.add a far) b) far)
        && B.equal (B.add d b) a
        && match oracle (fun x y -> native_add x (-y)) a b with
           | Some n when b <> B.of_int min_int -> same d (B.of_int n)
           | _ -> true);
    prop "edge mul matches multi-limb path and int oracle" 2000 pair (fun (a, b) ->
        let p = B.mul a b in
        same p (B.sub (B.mul (B.add a far) b) (B.mul far b))
        && same p (B.mul b a)
        && match oracle native_mul a b with Some n -> same p (B.of_int n) | None -> true);
    prop "edge divmod truncates" 2000 pair (fun (a, b) ->
        QCheck.assume (not (B.is_zero b));
        let q, r = B.divmod a b in
        same a (B.add (B.mul q b) r)
        && B.compare (B.abs r) (B.abs b) < 0
        && (B.is_zero r || B.sign r = B.sign a)
        && same q (B.div a b) && same r (B.rem a b)
        && match oracle (fun x y -> if x = min_int && y = -1 then None else Some (x / y, x mod y)) a b with
           | Some (nq, nr) -> same q (B.of_int nq) && same r (B.of_int nr)
           | None -> true);
    prop "edge ediv_emod is euclidean" 2000 pair (fun (a, b) ->
        QCheck.assume (not (B.is_zero b));
        let q, r = B.ediv_emod a b in
        same a (B.add (B.mul q b) r) && B.sign r >= 0 && B.compare r (B.abs b) < 0);
    prop "edge gcd divides both, cofactors coprime" 2000 pair (fun (a, b) ->
        let g = B.gcd a b in
        if B.is_zero a && B.is_zero b then B.is_zero g
        else
          B.sign g > 0
          && B.is_zero (B.rem a g) && B.is_zero (B.rem b g)
          && same (B.gcd (B.div a g) (B.div b g)) B.one
          && same g (B.gcd b a));
    prop "edge compare is the sign of the difference" 2000 pair (fun (a, b) ->
        let c = B.compare a b in
        c = B.sign (B.sub a b)
        && c = -B.compare b a
        && match oracle (fun x y -> Some (compare x y)) a b with Some n -> c = n | None -> true);
    prop "edge to_string/of_string round trip" 2000 arb_edge (fun a ->
        let s = B.to_string a in
        same (B.of_string s) a
        && match B.to_int a with Some n -> s = string_of_int n | None -> true);
    prop "edge fits_int is exactly [min_int, max_int]" 2000 arb_edge (fun a ->
        let inside =
          B.compare a (B.of_int min_int) >= 0 && B.compare a (B.of_int max_int) <= 0
        in
        B.fits_int a = inside
        && match B.to_int a with Some n -> inside && same (B.of_int n) a | None -> not inside);
    prop "canonical form survives a multi-limb detour" 2000
      QCheck.(pair arb_small_int arb_edge) (fun (n, e) ->
        let back x = B.sub (B.add x far) far in
        let x = B.of_int n in
        let y = back x in
        same y x && B.hash y = B.hash x && Hashtbl.hash y = Hashtbl.hash x
        && same (back e) e && B.hash (back e) = B.hash e
        && Hashtbl.hash (back e) = Hashtbl.hash e);
  ]

let bigint_props =
  [
    prop "add matches int oracle" 1000 QCheck.(pair arb_small_int arb_small_int) (fun (a, b) ->
        B.equal (B.add (B.of_int a) (B.of_int b)) (B.of_int (a + b)));
    prop "mul matches int oracle" 1000 QCheck.(pair arb_small_int arb_small_int) (fun (a, b) ->
        B.equal (B.mul (B.of_int a) (B.of_int b)) (B.of_int (a * b)));
    prop "divmod matches int oracle" 1000 QCheck.(pair arb_small_int arb_small_int) (fun (a, b) ->
        QCheck.assume (b <> 0);
        let q, r = B.divmod (B.of_int a) (B.of_int b) in
        B.equal q (B.of_int (a / b)) && B.equal r (B.of_int (a mod b)));
    prop "compare matches int oracle" 1000 QCheck.(pair arb_small_int arb_small_int) (fun (a, b) ->
        compare a b = B.compare (B.of_int a) (B.of_int b));
    prop "string roundtrip" 500 arb_big (fun x -> B.equal x (B.of_string (B.to_string x)));
    prop "add commutes" 500 QCheck.(pair arb_big arb_big) (fun (a, b) ->
        B.equal (B.add a b) (B.add b a));
    prop "add associates" 300 QCheck.(triple arb_big arb_big arb_big) (fun (a, b, c) ->
        B.equal (B.add a (B.add b c)) (B.add (B.add a b) c));
    prop "mul distributes" 300 QCheck.(triple arb_big arb_big arb_big) (fun (a, b, c) ->
        B.equal (B.mul a (B.add b c)) (B.add (B.mul a b) (B.mul a c)));
    prop "divmod reconstructs" 500 QCheck.(pair arb_big arb_big) (fun (a, b) ->
        QCheck.assume (not (B.is_zero b));
        let q, r = B.divmod a b in
        B.equal a (B.add (B.mul q b) r) && B.compare (B.abs r) (B.abs b) < 0);
    prop "ediv_emod reconstructs with 0 <= r < |b|" 500 QCheck.(pair arb_big arb_big) (fun (a, b) ->
        QCheck.assume (not (B.is_zero b));
        let q, r = B.ediv_emod a b in
        B.equal a (B.add (B.mul q b) r) && B.sign r >= 0 && B.compare r (B.abs b) < 0);
    prop "gcd divides both" 500 QCheck.(pair arb_big arb_big) (fun (a, b) ->
        QCheck.assume (not (B.is_zero a) || not (B.is_zero b));
        let g = B.gcd a b in
        B.is_zero (B.rem a g) && B.is_zero (B.rem b g));
    prop "neg is involutive" 500 arb_big (fun a -> B.equal a (B.neg (B.neg a)));
    prop "sub self is zero" 500 arb_big (fun a -> B.is_zero (B.sub a a));
    prop "mul_int agrees with mul" 500 QCheck.(pair arb_big arb_small_int) (fun (a, n) ->
        B.equal (B.mul_int a n) (B.mul a (B.of_int n)));
    prop "hash respects equality" 500 arb_big (fun a ->
        B.hash a = B.hash (B.sub (B.add a B.one) B.one));
  ]

(* ------------------------------------------------------------------ *)
(* Rational unit tests.                                                *)

let test_q_normalize () =
  Alcotest.check rational "6/4 = 3/2" (Q.of_ints 3 2) (Q.of_ints 6 4);
  Alcotest.check rational "neg den" (Q.of_ints (-1) 2) (Q.of_ints 1 (-2));
  Alcotest.check rational "zero" Q.zero (Q.of_ints 0 17);
  Alcotest.(check string) "print" "-1/2" (Q.to_string (Q.of_ints 2 (-4)))

let test_q_arith () =
  Alcotest.check rational "1/2 + 1/3" (Q.of_ints 5 6) (Q.add (Q.of_ints 1 2) (Q.of_ints 1 3));
  Alcotest.check rational "1/2 * 2/3" (Q.of_ints 1 3) (Q.mul (Q.of_ints 1 2) (Q.of_ints 2 3));
  Alcotest.check rational "(1/2) / (3/4)" (Q.of_ints 2 3) (Q.div (Q.of_ints 1 2) (Q.of_ints 3 4));
  Alcotest.check rational "sub" (Q.of_ints 1 6) (Q.sub (Q.of_ints 1 2) (Q.of_ints 1 3))

let test_q_floor_ceil () =
  Alcotest.check bigint "floor 7/2" (B.of_int 3) (Q.floor (Q.of_ints 7 2));
  Alcotest.check bigint "ceil 7/2" (B.of_int 4) (Q.ceil (Q.of_ints 7 2));
  Alcotest.check bigint "floor -7/2" (B.of_int (-4)) (Q.floor (Q.of_ints (-7) 2));
  Alcotest.check bigint "ceil -7/2" (B.of_int (-3)) (Q.ceil (Q.of_ints (-7) 2));
  Alcotest.check bigint "floor 3" (B.of_int 3) (Q.floor (Q.of_int 3));
  Alcotest.check bigint "ceil 3" (B.of_int 3) (Q.ceil (Q.of_int 3))

let test_q_compare () =
  Alcotest.(check bool) "1/3 < 1/2" true (Q.compare (Q.of_ints 1 3) (Q.of_ints 1 2) < 0);
  Alcotest.(check bool) "-1/2 < 1/3" true (Q.compare (Q.of_ints (-1) 2) (Q.of_ints 1 3) < 0);
  Alcotest.(check bool) "equal" true (Q.equal (Q.of_ints 2 4) (Q.of_ints 1 2))

let test_q_misc () =
  Alcotest.(check bool) "is_integer 4/2" true (Q.is_integer (Q.of_ints 4 2));
  Alcotest.(check bool) "is_integer 1/2" false (Q.is_integer (Q.of_ints 1 2));
  Alcotest.check bigint "to_bigint" (B.of_int 2) (Q.to_bigint (Q.of_ints 4 2));
  Alcotest.check_raises "inv zero" Division_by_zero (fun () -> ignore (Q.inv Q.zero));
  Alcotest.check_raises "make zero den" Division_by_zero (fun () ->
      ignore (Q.make B.one B.zero));
  Alcotest.(check (float 1e-9)) "to_float" 0.5 (Q.to_float (Q.of_ints 1 2))

let arb_q =
  QCheck.map
    (fun (n, d) -> Q.of_ints n (1 + abs d))
    QCheck.(pair (int_range (-10000) 10000) (int_range 0 9999))

(* Integers (denominator one) take Rational's fast paths; adding 1/2 or
   halving first sends the same computation through the fraction path. *)
let arb_q_int = QCheck.map ~rev:Q.to_bigint Q.of_bigint arb_edge

let q_int_props =
  let half = Q.of_ints 1 2 and two = Q.of_int 2 in
  let pair = QCheck.pair arb_q_int arb_q_int in
  [
    prop "q integer add/sub match the fraction path" 1000 pair (fun (a, b) ->
        Q.add a b = Q.sub (Q.add (Q.add a half) b) half
        && Q.sub a b = Q.sub (Q.sub (Q.add a half) b) half);
    prop "q integer mul matches the fraction path" 1000 pair (fun (a, b) ->
        Q.mul a b = Q.mul (Q.mul a half) (Q.mul b two));
    prop "q integer compare matches the fraction path" 1000 pair (fun (a, b) ->
        Q.compare a b = Q.compare (Q.add a half) (Q.add b half)
        && Q.compare a b = B.compare (Q.num a) (Q.num b));
    prop "q make over one is of_bigint" 1000 arb_edge (fun n ->
        Q.make n B.one = Q.of_bigint n && Q.make (B.neg n) B.minus_one = Q.of_bigint n);
  ]

let rational_props =
  [
    prop "q add commutes" 500 QCheck.(pair arb_q arb_q) (fun (a, b) ->
        Q.equal (Q.add a b) (Q.add b a));
    prop "q mul inverse" 500 arb_q (fun a ->
        QCheck.assume (not (Q.is_zero a));
        Q.equal Q.one (Q.mul a (Q.inv a)));
    prop "q add neg is zero" 500 arb_q (fun a -> Q.is_zero (Q.add a (Q.neg a)));
    prop "q floor <= q < floor+1" 500 arb_q (fun a ->
        let f = Q.of_bigint (Q.floor a) in
        Q.compare f a <= 0 && Q.compare a (Q.add f Q.one) < 0);
    prop "q ceil-floor consistent" 500 arb_q (fun a ->
        if Q.is_integer a then B.equal (Q.floor a) (Q.ceil a)
        else B.equal (Q.ceil a) (B.succ (Q.floor a)));
    prop "q distributivity" 300 QCheck.(triple arb_q arb_q arb_q) (fun (a, b, c) ->
        Q.equal (Q.mul a (Q.add b c)) (Q.add (Q.mul a b) (Q.mul a c)));
    prop "q compare antisymmetric" 500 QCheck.(pair arb_q arb_q) (fun (a, b) ->
        Q.compare a b = -Q.compare b a);
  ]

let () =
  Alcotest.run "numbers"
    [
      ( "bigint-unit",
        [
          Alcotest.test_case "of_int/to_int roundtrip" `Quick test_of_to_int;
          Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip;
          Alcotest.test_case "leading plus" `Quick test_string_leading_plus;
          Alcotest.test_case "addition carries" `Quick test_add_carries;
          Alcotest.test_case "multiplication known value" `Quick test_mul_known;
          Alcotest.test_case "divmod known value" `Quick test_divmod_known;
          Alcotest.test_case "divmod sign convention" `Quick test_divmod_signs;
          Alcotest.test_case "euclidean division" `Quick test_ediv_emod;
          Alcotest.test_case "floor/ceil division" `Quick test_fdiv_cdiv;
          Alcotest.test_case "division by zero" `Quick test_div_by_zero;
          Alcotest.test_case "gcd and lcm" `Quick test_gcd_lcm;
          Alcotest.test_case "pow" `Quick test_pow;
          Alcotest.test_case "shift_left" `Quick test_shift_left;
          Alcotest.test_case "comparison ordering" `Quick test_compare_orders;
          Alcotest.test_case "min/max" `Quick test_min_max;
          Alcotest.test_case "fits_int" `Quick test_fits_int;
          Alcotest.test_case "hash and to_string pinned" `Quick test_hash_string_pinned;
        ] );
      ("bigint-props", bigint_props);
      ("bigint-edges", edge_props);
      ( "rational-unit",
        [
          Alcotest.test_case "normalization" `Quick test_q_normalize;
          Alcotest.test_case "arithmetic" `Quick test_q_arith;
          Alcotest.test_case "floor/ceil" `Quick test_q_floor_ceil;
          Alcotest.test_case "comparison" `Quick test_q_compare;
          Alcotest.test_case "misc" `Quick test_q_misc;
        ] );
      ("rational-props", rational_props);
      ("rational-integers", q_int_props);
    ]
