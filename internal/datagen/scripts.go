package datagen

// ScriptS1 is the paper's motivating script (Sec. I, Fig. 6 S1): one
// shared aggregation with two consumers that want conflicting
// partitionings.
const ScriptS1 = `
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
R = SELECT A,B,C,Sum(D) as S FROM R0 GROUP BY A,B,C;
R1 = SELECT A,B,Sum(S) as S1 FROM R GROUP BY A,B;
R2 = SELECT B,C,Sum(S) as S2 FROM R GROUP BY B,C;
OUTPUT R1 TO "result1.out";
OUTPUT R2 TO "result2.out";
`

// ScriptS2 is Fig. 6 S2: a single shared group with three consumers.
const ScriptS2 = `
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
R = SELECT A,B,C,Sum(D) as S FROM R0 GROUP BY A,B,C;
R1 = SELECT B,A,Sum(S) as S1 FROM R GROUP BY B,A;
R2 = SELECT A,C,Sum(S) as S2 FROM R GROUP BY A,C;
R3 = SELECT A,Sum(S) as S3 FROM R GROUP BY A;
OUTPUT R1 TO "result1.out";
OUTPUT R2 TO "result2.out";
OUTPUT R3 TO "result3.out";
`

// ScriptS3 is Fig. 6 S3: two shared groups over two inputs, each with
// its own join — two different LCAs (Fig. 4(a)).
const ScriptS3 = `
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
R = SELECT A,B,C,Sum(D) as S FROM R0 GROUP BY A,B,C;
R1 = SELECT B,C,Sum(S) as S1 FROM R GROUP BY B,C;
R2 = SELECT B,A,Sum(S) as S2 FROM R GROUP BY B,A;
RR = SELECT R1.B,A,C,S1,S2 FROM R1,R2 WHERE R1.B=R2.B;
T0 = EXTRACT A,B,C,D FROM "test2.log" USING LogExtractor;
T = SELECT A,B,C,Sum(D) as S FROM T0 GROUP BY A,B,C;
T1 = SELECT B,C,Sum(S) as S1 FROM T GROUP BY B,C;
T2 = SELECT B,A,Sum(S) as S2 FROM T GROUP BY B,A;
TT = SELECT T1.B,A,C,S1,S2 FROM T1,T2 WHERE T1.B=T2.B;
OUTPUT RR TO "result1.out";
OUTPUT TT TO "result2.out";
`

// ScriptS4 is Fig. 6 S4: non-independent shared groups — R1 and R2
// feed both direct outputs and a join, so the LCA of every shared
// group is the root (the Fig. 3(c) situation).
const ScriptS4 = `
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
R = SELECT A,B,C,Sum(D) as S FROM R0 GROUP BY A,B,C;
R1 = SELECT B,C,Sum(S) as S1 FROM R GROUP BY B,C;
R2 = SELECT B,A,Sum(S) as S2 FROM R GROUP BY B,A;
RR = SELECT R1.B,A,C FROM R1,R2 WHERE R1.B=R2.B;
OUTPUT R1 TO "result1.out";
OUTPUT R2 TO "result2.out";
OUTPUT RR TO "result3.out";
`

// ScriptFig5 is the Sec. VIII-A / Fig. 5 shape: two disjoint shared
// pipelines whose consumers all terminate in outputs, so both shared
// groups have the Sequence root as their LCA yet are independent.
const ScriptFig5 = `
R0 = EXTRACT A,B,C,D FROM "test.log" USING LogExtractor;
R = SELECT A,B,C,Sum(D) as S FROM R0 GROUP BY A,B,C;
R1 = SELECT A,B,Sum(S) as S1 FROM R GROUP BY A,B;
R2 = SELECT B,C,Sum(S) as S2 FROM R GROUP BY B,C;
T0 = EXTRACT A,B,C,D FROM "test2.log" USING LogExtractor;
T = SELECT A,B,C,Sum(D) as S FROM T0 GROUP BY A,B,C;
T1 = SELECT A,B,Sum(S) as S1 FROM T GROUP BY A,B;
T2 = SELECT B,C,Sum(S) as S2 FROM T GROUP BY B,C;
OUTPUT R1 TO "o1";
OUTPUT R2 TO "o2";
OUTPUT T1 TO "o3";
OUTPUT T2 TO "o4";
`
