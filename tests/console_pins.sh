#!/usr/bin/env bash
# Console-script pins: every command runs the `qpascal` found on PATH in
# a scratch directory and must print the recorded text or digest, or exit
# with the recorded code.  CI runs it after `pip install .`; to run it
# against a source tree, put a `qpascal` shim on PATH (see README,
# "Testing").
set -euo pipefail
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
out=$(cd "$work" && qpascal table --kind d --q 2 --depth 1 --format csv)
test "$out" = "$(printf 'n,k,value\n0,0,1\n1,0,1\n1,1,1')"
# the integer row ratio above q = 1 and with a numerator above 1
out=$(cd "$work" && qpascal table --kind d --q 3/2 --depth 3 --format csv)
test "$out" = "$(printf 'n,k,value\n0,0,1\n1,0,1\n1,1,1\n2,0,1\n2,1,5/2\n2,2,1\n3,0,1\n3,1,19/4\n3,2,19/4\n3,3,1')"
out=$(cd "$work" && qpascal table --kind d --q 9/10 --depth 3 --format csv)
test "$out" = "$(printf 'n,k,value\n0,0,1\n1,0,1\n1,1,1\n2,0,1\n2,1,19/10\n2,2,1\n3,0,1\n3,1,271/100\n3,2,271/100\n3,3,1')"
# a near-unit extreme histogram in both modes: the runs mode reads
# its geometric run lengths from memoised cutoffs
out=$(cd "$work" && qpascal sample --process extreme --mode runs --kappa 6 --q 99/100 --n 22 --trials 50 --seed 3)
test "$out" = "$(printf 'k,count,frequency,expected\n0,8,0.16,0.2653662497\n1,23,0.46,0.404085572\n2,14,0.28,0.2434444326\n3,4,0.08,0.07410591936\n4,1,0.02,0.01199148181\n5,0,0,0.0009752924368\n6,0,0,3.105203753e-05\n7,0,0,0\n8,0,0,0\n9,0,0,0\n10,0,0,0\n11,0,0,0\n12,0,0,0\n13,0,0,0\n14,0,0,0\n15,0,0,0\n16,0,0,0\n17,0,0,0\n18,0,0,0\n19,0,0,0\n20,0,0,0\n21,0,0,0\n22,0,0,0')"
out=$(cd "$work" && qpascal sample --process extreme --mode forward --kappa 6 --q 99/100 --n 22 --trials 50 --seed 3)
test "$out" = "$(printf 'k,count,frequency,expected\n0,9,0.18,0.2653662497\n1,19,0.38,0.404085572\n2,17,0.34,0.2434444326\n3,4,0.08,0.07410591936\n4,1,0.02,0.01199148181\n5,0,0,0.0009752924368\n6,0,0,3.105203753e-05\n7,0,0,0\n8,0,0,0\n9,0,0,0\n10,0,0,0\n11,0,0,0\n12,0,0,0\n13,0,0,0\n14,0,0,0\n15,0,0,0\n16,0,0,0\n17,0,0,0\n18,0,0,0\n19,0,0,0\n20,0,0,0\n21,0,0,0\n22,0,0,0')"
# the three other samplers: theta, the exact urn and the float urn
out=$(cd "$work" && qpascal sample --process theta --theta 2 --q 9/10 --n 22 --trials 50 --seed 3)
test "$out" = "$(printf 'k,count,frequency,expected\n0,0,0,4.480628519e-06\n1,0,0,8.07877852e-05\n2,0,0,0.0006816132702\n3,0,0,0.003579213707\n4,1,0.02,0.01312460739\n5,2,0.04,0.03574311624\n6,5,0.1,0.07506450468\n7,8,0.16,0.1245927863\n8,7,0.14,0.1661811549\n9,9,0.18,0.1801251937\n10,7,0.14,0.1598165603\n11,6,0.12,0.1165460116\n12,2,0.04,0.06994786588\n13,2,0.04,0.03450482585\n14,0,0,0.01393284615\n15,1,0.02,0.004571972995\n16,0,0,0.001205585653\n17,0,0,0.0002512514349\n18,0,0,4.037896174e-05\n19,0,0,4.819579477e-06\n20,0,0,4.0170963e-07\n21,0,0,2.083879477e-08\n22,0,0,5.058462373e-10')"
out=$(cd "$work" && qpascal sample --process polya --a 3 --b 2 --q 9/10 --n 22 --trials 50 --seed 3)
test "$out" = "$(printf 'k,count,frequency,expected\n0,1,0.02,0.02216247823\n1,1,0.02,0.04812318642\n2,1,0.02,0.06969708792\n3,6,0.12,0.08414441798\n4,3,0.06,0.09143488258\n5,4,0.08,0.09271565356\n6,7,0.14,0.08949234995\n7,6,0.12,0.08322286636\n8,4,0.08,0.07514287644\n9,5,0.1,0.06621546188\n10,3,0.06,0.05714242144\n11,2,0.04,0.04840210009\n12,2,0.04,0.0402948188\n13,2,0.04,0.03298644601\n14,0,0,0.02654600151\n15,2,0.04,0.02097607875\n16,0,0,0.01623633258\n17,0,0,0.01226092444\n18,0,0,0.008971018679\n19,0,0,0.006283397461\n20,0,0,0.004116134566\n21,1,0.02,0.002392106362\n22,0,0,0.001040957989')"
out=$(cd "$work" && qpascal sample --process polya --a 3/2 --b 5/2 --q 9/10 --n 22 --trials 50 --seed 3)
test "$out" = "$(printf 'k,count,frequency,expected\n0,3,0.06,0.1400794418\n1,3,0.06,0.1548828684\n2,9,0.18,0.1424954012\n3,13,0.26,0.1221425436\n4,6,0.12,0.1007472271\n5,6,0.12,0.08105358976\n6,5,0.1,0.06403582508\n7,3,0.06,0.0498643609\n8,1,0.02,0.03835010162\n9,1,0.02,0.02916142019\n10,0,0,0.02193153459\n11,0,0,0.016310004\n12,0,0,0.01198504847\n13,0,0,0.008690666898\n14,0,0,0.00620608075\n15,0,0,0.004351601536\n16,0,0,0.002983139048\n17,0,0,0.001986517304\n18,0,0,0.001272177621\n19,0,0,0.0007705237661\n20,0,0,0.0004279953322\n21,0,0,0.0002038920146\n22,0,0,6.803906879e-05')"
# histograms across the stream's block and chunk bounds: words longer
# than a block, trials over several chunks, and words past the pre-fill
out=$(cd "$work" && qpascal sample --process extreme --kappa 6 --q 99/100 --n 1500 --trials 3 --seed 4 | sha256sum)
test "$out" = "e2bb3ccfdf98ce773a5fb60ee1bb2262eb55c2472036b943fb178b1e02012022  -"
out=$(cd "$work" && qpascal sample --process theta --theta 2 --q 9/10 --n 3 --trials 5000 --seed 4 | sha256sum)
test "$out" = "371620da50c18114fe2b973d7a97648314c9ad43ab7f85db6e9fea65f1f01e4f  -"
out=$(cd "$work" && qpascal sample --process extreme --mode runs --kappa 6 --q 99/100 --n 22 --trials 3000 --seed 4 | sha256sum)
test "$out" = "7336d90f38b88b5c3b0daf2c3a577ea8080ff2052cfedb58a68e20e974dce02a  -"
out=$(cd "$work" && qpascal sample --process extreme --kappa 2 --q 1/2 --n 4500 --trials 2 --seed 4 | sha256sum)
test "$out" = "dbef9a400cf6adb2252cf4f9201e595cc383e5622bea837c977a7a9f18d6aef2  -"
# a deep extreme level: a Gaussian row times canonical-word
# products, where a Fraction forward pass took about 35 s
out=$(cd "$work" && timeout 20 qpascal sample --process extreme --kappa 200 --q 99/100 --n 80 --trials 20 --seed 0 | sha256sum)
test "$out" = "8c3a654715592099ede9db7a13ae8cd78c388853a5a1ee82e98b7af3bb860899  -"
# a runs word near q = 1 grows its cutoffs only up to the letters left,
# and an all-ones level reads one Gaussian cell; each took over a second
out=$(cd "$work" && timeout 5 qpascal sample --process extreme --mode runs --q 9999/10000 --kappa 1 --n 5 --seed 0 | sha256sum)
test "$out" = "c433f66b18f837bfee50f438093bb880d9507c074c4fad642ee0063f5f8aeb1e  -"
out=$(cd "$work" && timeout 5 qpascal sample --process extreme --kappa inf --q 1/2 --n 1200 --trials 2 --seed 4 | sha256sum)
test "$out" = "6373f65daae2a2beb2ed498e5ba7f0e410951f4669dd6cdfadac301f3bc0569f  -"
# a guard trip exits 6 at once, also when the refused count or
# field size is too long to print; an urn strength beyond a float
# is a usage error, and so are a mode that is not forward or runs,
# the runs mode of a process other than extreme and an empty
# modulus; a modulus coefficient outside [0, p) is a field error
exits() {
  local want=$1 code=0
  shift
  (cd "$work" && "$@" >/dev/null) || code=$?
  echo "$* -> exit $code"
  test "$code" -eq "$want"
}
exits 6 env QB_MAX_ENUM=10 qpascal grassmann --p 2 --enumerate 4 2
exits 6 qpascal grassmann --p 2 --enumerate 300 150
exits 6 timeout 20 qpascal grassmann --p 2 --enumerate 4000 2000
exits 6 timeout 20 qpascal grassmann --p 3 --m 100000000 --grow 1
exits 6 timeout 20 qpascal grassmann --p 2 --enumerate 100000000 1
exits 2 qpascal sample --process polya --a 1e400 --b 1 --q 1/2 --n 3 --seed 0
exits 2 qpascal sample --process extreme --mode backward --kappa 1 --q 1/2 --n 3 --seed 0
exits 2 qpascal sample --process theta --mode runs --theta 1 --q 1/2 --n 3 --seed 0
exits 2 qpascal grassmann --p 2 --modulus '' --grow 1
exits 5 qpascal grassmann --p 2 --modulus 5,1 --grow 1
# one 1600 x 1600 basis costs its entries, not k^2 n pivot tests,
# and prints its 28 MB of JSON under a 512 MB address space
out=$(cd "$work" && timeout 20 bash -c 'ulimit -v 524288; exec qpascal grassmann --p 2 --enumerate 1600 1600' | sha256sum)
test "$out" = "9d2abaff9e4e85d635fdf874f0190cb2a4b3d30e91152710b2a34695ece63e7c  -"
# a deep level holds one Gaussian cell and a few powers: --n 800
# runs under a 512 MB address space, and --n 400 prints the bytes
# it printed when a table of powers took 265 MB; the urn at q > 1
# is a regime error, as theta and extreme are
exits 0 timeout 20 bash -c 'ulimit -v 524288; exec qpascal sample --process extreme --kappa 5 --q 1/2 --n 800 --trials 1 --seed 0'
out=$(cd "$work" && timeout 20 qpascal sample --process extreme --kappa 5 --q 1/2 --n 400 --trials 1 --seed 0 | sha256sum)
test "$out" = "d1c49cbf5336c19f8082f2ed7ec161f45319d9738302bf17d53ac8f505ee86ca  -"
exits 3 qpascal sample --process polya --a 1 --b 1 --q 3/2 --n 3 --seed 0
# the float urn's chain refuses a triangle at any depth and kind; its
# word, and theta = inf's, print the params echo in flag order
exits 2 qpascal table --law polya --a 1/2 --b 1 --q 1/2 --depth 0
exits 2 qpascal table --law polya --a 1/2 --b 1 --q 1/2 --kind tilde --depth 3
out=$(cd "$work" && qpascal sample --process theta --theta inf --q 1/2 --n 5 --seed 0 | sha256sum)
test "$out" = "8e5ba3215e18fc7d1db83a5d5c95a624a3695d0c3f0f898613140b575d80535c  -"
out=$(cd "$work" && qpascal sample --process polya --a 3/2 --b 5/2 --q 9/10 --n 10 --seed 3 | sha256sum)
test "$out" = "1c450d288c7697dfaa9a55d919f81903ab760355cf21c0597833f857cbbd2ec6  -"
# recover and check read a triangle that table wrote; check also
# reads a moment window, and flip takes a word
(cd "$work" && qpascal table --law theta --theta 1/3 --q 1/2 --depth 12 -o t.json)
out=$(cd "$work" && qpascal recover --input t.json --nu 12 --kmax 2 | sha256sum)
test "$out" = "71832d90bca99c274962f27206700cd5f8c7b8144613bc0d3fa2c6d3566ee470  -"
exits 0 qpascal check --kind recursion --input t.json
# one cell moved by 1/1024 breaks the recursion in the row above it
(cd "$work" && python -c 'import json, sys; from fractions import Fraction; d = json.load(open("t.json")); d["v"][7][3] = str(Fraction(d["v"][7][3]) + Fraction(1, 1024)); json.dump(d, sys.stdout)' > bad.json)
exits 4 qpascal check --kind recursion --input bad.json
out=$(cd "$work" && qpascal check --kind recursion --input bad.json || true)
test "$out" = "$(printf '{\n  "kind": "recursion",\n  "ok": false,\n  "witness": {\n    "n": 6,\n    "k": 2\n  }\n}')"
# a deep q = 9/10 triangle and its moment column check in integers
(cd "$work" && qpascal table --law theta --theta 1/3 --q 9/10 --depth 44 -o deep.json)
(cd "$work" && python -c 'import json, sys; d = json.load(open("deep.json")); json.dump({"moments": [row[0] for row in d["v"]]}, sys.stdout)' > deep-u.json)
exits 0 timeout 20 qpascal check --kind recursion --input deep.json
exits 0 timeout 20 qpascal check --kind monotone --input deep-u.json --q 9/10
printf '{"moments": ["1", "3/4", "9/14", "54/91", "1296/2275"]}' > "$work/u.json"
exits 0 qpascal check --kind monotone --input u.json --q 1/2
printf '{"moments": ["1", "1/2", "1/3", "1/5"]}' > "$work/w.json"
exits 4 qpascal check --kind monotone --input w.json --q 1/2
out=$(cd "$work" && qpascal check --kind monotone --input w.json --q 1/2 || true)
test "$out" = "$(printf '{\n  "kind": "monotone",\n  "ok": false,\n  "witness": {\n    "iterate": 2,\n    "index": 1\n  }\n}')"
# flip reads a q > 1 triangle as integer pairs: the one made from
# t.json flips back to t.json, and so does the same file with
# every cell written unreduced; recover and flip read deep files
# in bounded time
raise='import json, sys; from fractions import Fraction as F; d = json.load(open(sys.argv[1])); c = int(sys.argv[2]); q = F(d["q"]); v = [[F(x) for x in r] for r in d["v"]]; json.dump({"q": str(1 / q), "depth": d["depth"], "v": [["%d/%d" % (c * x.numerator, c * x.denominator) for x in (q ** (j * (n - j)) * r[n - j] for j in range(n + 1))] for n, r in enumerate(v)]}, sys.stdout)'
(cd "$work" && python -c "$raise" t.json 1 > up.json && python -c "$raise" t.json 6 > up6.json && python -c "$raise" deep.json 1 > deep-up.json)
out=$(cd "$work" && qpascal flip --input up.json | sha256sum)
test "$out" = "0f7ba92ff9c0f2fe4d9f5288843e9343158904be4ee3d2976631180ab5d84dde  -"
out=$(cd "$work" && qpascal flip --input up6.json | sha256sum)
test "$out" = "0f7ba92ff9c0f2fe4d9f5288843e9343158904be4ee3d2976631180ab5d84dde  -"
exits 0 timeout 20 qpascal recover --input deep.json --nu 44 --kmax 12
exits 0 timeout 20 qpascal flip --input deep-up.json
out=$(cd "$work" && qpascal flip --word 0110 --q 2)
test "$out" = "$(printf '{\n  "word": "1001",\n  "q": "1/2"\n}')"
# a file nested deeper than the JSON decoder recurses is a usage
# error, not a traceback
(cd "$work" && python -c 'import sys; d = 100000; sys.stdout.write("{\"q\": \"1/2\", \"v\": " + "[" * d + "]" * d + "}")' > nested.json)
exits 2 qpascal check --kind recursion --input nested.json
# theta = inf is the all-ones law, the extreme law at kappa = inf
out=$(cd "$work" && qpascal table --law theta --theta inf --q 1/2 --depth 6 | sha256sum)
test "$out" = "$(cd "$work" && qpascal table --law extreme --kappa inf --q 1/2 --depth 6 | sha256sum)"
# the triangle, mixture and tilde builders multiply integer pairs;
# these digests were printed when every cell was Fraction arithmetic
out=$(cd "$work" && qpascal table --law theta --theta 3/2 --q 9/10 --depth 44 --kind tilde --format json | sha256sum)
test "$out" = "66ea2052aaf69f90eebdf760adf82da746010e4ba48b282e8a99d7403c64f1d3  -"
out=$(cd "$work" && qpascal table --law polya --a 3 --b 2 --q 2/3 --depth 30 --kind v --format json | sha256sum)
test "$out" = "a707f618955c23371c5e5ce7ebe52eaa9448308015722df77401f23794793474  -"
out=$(cd "$work" && qpascal table --law extreme --kappa 5 --q 9/10 --depth 44 --kind v --format text | sha256sum)
test "$out" = "0ea22f29b010211766046ade0ffd7fbd96b4549d57d99b252fc9fce27c059422  -"
printf '{"q": "1/2", "atoms": [{"kappa": 1, "mass": "1/6"}, {"kappa": 4, "mass": "1/3"}, {"kappa": 9, "mass": "1/2"}], "zero_mass": "0"}' > "$work/m.json"
out=$(cd "$work" && qpascal table --law mixture --measure-file m.json --q 1/2 --depth 36 --kind tilde --format csv | sha256sum)
test "$out" = "592240b332fa4da099c9fbbfcc44c494678f15507cd313c0da88b6206cea5a00  -"
# subspace chains over GF(2), GF(3), GF(4) and GF(16) and two
# Grassmannians; these digests were printed when Subspace(...)
# row-reduced every basis it was given
out=$(cd "$work" && qpascal grassmann --p 2 --grow 4 --nmax 48 --seed 7 | sha256sum)
test "$out" = "ae2fd35a47962dd725339ff0746f4474848a4eeb3b15fe5013f3a25fb11146ae  -"
out=$(cd "$work" && qpascal grassmann --p 3 --grow 3 --nmax 30 --seed 1 | sha256sum)
test "$out" = "f633810d563a285f5c360747cd5f730a4948a27b13fa1e74dd253be425a48d3f  -"
out=$(cd "$work" && qpascal grassmann --p 2 --m 2 --grow 5 --nmax 24 --seed 2 | sha256sum)
test "$out" = "5c97eb5729ed6194e110898d697ff1fe5b91df403794675de1c4d6c8c3affc21  -"
out=$(cd "$work" && qpascal grassmann --p 2 --m 4 --grow 2 --nmax 20 --seed 5 | sha256sum)
test "$out" = "237015076efd647c274dfeaebdb018689b118cfd07495e4b2964689952f92908  -"
out=$(cd "$work" && qpascal grassmann --p 2 --enumerate 6 3 | sha256sum)
test "$out" = "d5aab200cd4a8304df5651fafd4606559c610b57fe32fbed7a51d3b56d7ce16f  -"
out=$(cd "$work" && qpascal grassmann --p 3 --enumerate 5 2 | sha256sum)
test "$out" = "bd2c04d0aa8787811ec1ebb1c09413825076b81e1d5026b7a3839dcf620a6942  -"
# entries of more than one digit, and a list of bases (three
# levels of ints); printed when each row was emitted on its own
out=$(cd "$work" && qpascal grassmann --p 2 --m 4 --enumerate 3 1 | sha256sum)
test "$out" = "dcd537f9b46deb38019c5e7e1b3bc2a4b5b52e0cf6a0146d498cd3015a1f3a93  -"
out=$(cd "$work" && qpascal grassmann --p 5 --enumerate 4 2 | sha256sum)
test "$out" = "1f138d7fc49d794f501cfadcae653b65212e2dc7ca8bb1a6bf5cbdafe7b26e72  -"
# rows built once per pivot set over GF(9), the empty and the full
# Grassmannian, a chain that never grows and a field above
# TABLE_FIELD_SIZE; printed when every basis was rebuilt
out=$(cd "$work" && qpascal grassmann --p 3 --m 2 --enumerate 4 2 | sha256sum)
test "$out" = "c532ff79c9ec3dc28e765baac17dcd14027eae2dd3ec2699ef4fc0351945df40  -"
out=$(cd "$work" && qpascal grassmann --p 2 --enumerate 5 0 | sha256sum)
test "$out" = "a3bf081768af125c97607386f7f416c07a53dfccd987f2ef288cc2d8bb6f0cd0  -"
out=$(cd "$work" && qpascal grassmann --p 2 --enumerate 5 5 | sha256sum)
test "$out" = "b36c84748747b15cb00bdd5827a00b5591ec22d5f5d24bf14ff996ea9161db71  -"
out=$(cd "$work" && qpascal grassmann --p 2 --grow inf --nmax 10 --seed 3 | sha256sum)
test "$out" = "57bd6eb05210e1135dd29ebc5feaa26c7c6afbc194c470339cb23dbc78fa1dcb  -"
out=$(cd "$work" && qpascal grassmann --p 1031 --grow 3 --nmax 12 --seed 4 | sha256sum)
test "$out" = "9fa196802fd5bb0d6d364b9a3f77ba6d15d89fd27a8e6ca0d9499302d38687b4  -"
# one-digit grids written into a fixed text template: a 48-level
# GF(2) chain, digits 0-7 in a list of bases, and GF(7); printed
# when every grid was joined a row at a time
out=$(cd "$work" && qpascal grassmann --p 2 --grow 4 --nmax 48 --seed 99 | sha256sum)
test "$out" = "59eaa1031f56b1464b6136c471bc33bd188041531a60344931fecfdbf6916685  -"
out=$(cd "$work" && qpascal grassmann --p 2 --m 3 --enumerate 4 2 | sha256sum)
test "$out" = "008f747a001e3f965075be60aa83a2e65b91244c3ecd6670272637f0e11a727e  -"
out=$(cd "$work" && qpascal grassmann --p 7 --enumerate 3 1 | sha256sum)
test "$out" = "6f3675d07d6667f31e13669dae2c78aa244e3e44c85f80d95e2fbe9336112748  -"
# a large urn strength: each exact p1 is two divisions by a small
# d^g - c^g, where a gcd of two million-bit numbers took 17 s
out=$(cd "$work" && timeout 5 qpascal sample --process polya --a 1000000 --b 1 --q 1/2 --n 3 --seed 0 | sha256sum)
test "$out" = "1d022cc00c99651b278303b96af7678dfc75ac2667a5a40007071a2f823b0e96  -"
# a kappa 10^8 above the codimension takes the threshold 1 without
# building (1/3)^(10^8): the chain is kappa = 200's, but for the
# echoed kappa
out=$(cd "$work" && timeout 20 qpascal grassmann --p 3 --grow 100000000 --nmax 5 --seed 1 | grep -v '"kappa"')
test "$out" = "$(cd "$work" && qpascal grassmann --p 3 --grow 200 --nmax 5 --seed 1 | grep -v '"kappa"')"
# the extreme samplers at a kappa 10^6 above every k: each gap
# exceeds M(q), so every threshold is kappa = inf's, built
# without the power q^(kappa - k)
for args in "--q 999/1000 --n 5 --mode forward" "--q 999/1000 --n 5 --mode runs" "--q 1/2 --n 22 --mode forward"; do
  out=$(cd "$work" && timeout 5 qpascal sample --process extreme $args --seed 0 --kappa 1000000 | grep -v '"kappa"')
  test "$out" = "$(cd "$work" && qpascal sample --process extreme $args --seed 0 --kappa inf | grep -v '"kappa"')"
done
